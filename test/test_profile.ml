(* The guest profiler: exact cycle attribution, engine agreement, Stats
   byte-identity, and the exporters' formats.

   The load-bearing invariant is that profiling is an exact decomposition,
   not an estimate: summing every block's issue/stall/shadow cycles plus
   the unattributed remainder reproduces the run's Stats totals to the
   cycle, on both engines and on both machine variants.  And it is
   passive: a profiled run's Stats and output are byte-identical to an
   unprofiled one's. *)

module Cpu = Mips_machine.Cpu
module Hosted = Mips_machine.Hosted
module Stats = Mips_machine.Stats
module Profile = Mips_profile
module Json = Mips_obs.Json

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)

let fuel = 200_000_000

(* representative corpus subset: recursion, loops, byte ops, backtracking *)
let programs = [ "fib"; "sieve"; "strops"; "queens" ]

let compiled name =
  let e = Mips_corpus.Corpus.find name in
  (Mips_codegen.Compile.compile e.Mips_corpus.Corpus.source,
   e.Mips_corpus.Corpus.input)

(* raw program-order code for the hardware-interlock machine, where stalls
   are real (the pairing [mipsc profile run --interlock] uses) *)
let compiled_raw name =
  let e = Mips_corpus.Corpus.find name in
  (Mips_reorg.Pipeline.compile_raw
     (Mips_codegen.Compile.to_asm e.Mips_corpus.Corpus.source),
   e.Mips_corpus.Corpus.input)

let run_profiled ?(config = Cpu.default_config) ~engine (program, input) =
  let cpu = Cpu.create ~config () in
  Cpu.set_profiling cpu true;
  let res = Hosted.run_program_on ~fuel ~input ~engine cpu program in
  checkb "halted" true res.Hosted.halted;
  (cpu, res)

let run_plain ?(config = Cpu.default_config) ~engine (program, input) =
  let cpu = Cpu.create ~config () in
  let res = Hosted.run_program_on ~fuel ~input ~engine cpu program in
  (cpu, res)

(* attribution sums back to Stats exactly: issue + shadow = words,
   stall = stall_cycles, everything together = cycles *)
let check_reconciles name cpu prof =
  let stats = Cpu.stats cpu in
  checki (name ^ ": total = cycles") stats.Stats.cycles
    (Profile.total_cycles prof);
  checki (name ^ ": issue+shadow = words") stats.Stats.words
    (prof.Profile.total_issue + prof.Profile.total_shadow);
  checki (name ^ ": stall = stall_cycles") stats.Stats.stall_cycles
    prof.Profile.total_stall;
  (* per-block sums equal the totals (capture keeps every executed word) *)
  let bi, bs, bsh =
    List.fold_left
      (fun (i, s, sh) b ->
        (i + b.Profile.b_issue, s + b.Profile.b_stall, sh + b.Profile.b_shadow))
      (0, 0, 0) prof.Profile.blocks
  in
  checki (name ^ ": blocks sum issue") prof.Profile.total_issue bi;
  checki (name ^ ": blocks sum stall") prof.Profile.total_stall bs;
  checki (name ^ ": blocks sum shadow") prof.Profile.total_shadow bsh

let test_reconciliation_delayed () =
  List.iter
    (fun name ->
      List.iter
        (fun engine ->
          let cpu, _ = run_profiled ~engine (compiled name) in
          let prof = Profile.capture ~program:name cpu in
          check_reconciles
            (Printf.sprintf "%s/%s" name (Cpu.engine_name engine))
            cpu prof;
          (* the delayed machine never stalls: attribution must agree *)
          checki (name ^ ": no stalls in delayed mode") 0
            prof.Profile.total_stall)
        [ Cpu.Ref; Cpu.Fast ])
    programs

let test_reconciliation_interlocked () =
  List.iter
    (fun name ->
      let cpu, _ =
        run_profiled ~config:Cpu.interlocked_config ~engine:Cpu.Ref
          (compiled_raw name)
      in
      let prof = Profile.capture ~program:name cpu in
      check_reconciles (name ^ "/interlocked") cpu prof;
      (* interlock mode has no delay shadows; raw schedules do stall *)
      checki (name ^ ": no shadow under interlock") 0
        prof.Profile.total_shadow;
      checkb (name ^ ": raw code stalls") true (prof.Profile.total_stall > 0))
    programs

let test_profiling_is_passive () =
  List.iter
    (fun name ->
      List.iter
        (fun engine ->
          let art = compiled name in
          let pcpu, pres = run_profiled ~engine art in
          let ucpu, ures = run_plain ~engine art in
          checks (name ^ ": stats byte-identical")
            (Json.to_string (Stats.to_json (Cpu.stats ucpu)))
            (Json.to_string (Stats.to_json (Cpu.stats pcpu)));
          checks (name ^ ": output identical") ures.Hosted.output
            pres.Hosted.output)
        [ Cpu.Ref; Cpu.Fast ])
    programs

let test_engines_agree () =
  (* the two engines walk the same semantics, so the whole profile —
     blocks, edges, pairs, attribution — must be identical *)
  List.iter
    (fun name ->
      let art = compiled name in
      let rcpu, _ = run_profiled ~engine:Cpu.Ref art in
      let fcpu, _ = run_profiled ~engine:Cpu.Fast art in
      checks name
        (Json.to_string (Profile.to_json (Profile.capture ~program:name rcpu)))
        (Json.to_string (Profile.to_json (Profile.capture ~program:name fcpu))))
    programs

let test_edges_land_on_leaders () =
  let cpu, _ = run_profiled ~engine:Cpu.Fast (compiled "fib") in
  let prof = Profile.capture ~program:"fib" cpu in
  checkb "has edges" true (prof.Profile.edges <> []);
  let leaders =
    List.map (fun b -> b.Profile.b_first) prof.Profile.blocks
  in
  List.iter
    (fun ((_, tgt), _) ->
      checkb (Printf.sprintf "edge target %d starts a block" tgt) true
        (List.mem tgt leaders))
    prof.Profile.edges

let test_interlocked_pairs () =
  (* back-to-back load-use is exactly what raw code on the interlocked
     machine exhibits — the fusion table must surface it *)
  let cpu, _ =
    run_profiled ~config:Cpu.interlocked_config ~engine:Cpu.Ref
      (compiled_raw "fib")
  in
  let prof = Profile.capture ~program:"fib" cpu in
  checkb "found load+use pairs" true
    (List.exists (fun p -> p.Profile.p_kind = Profile.Load_use)
       prof.Profile.pairs)

let test_folded_format () =
  let cpu, _ = run_profiled ~engine:Cpu.Fast (compiled "fib") in
  let prof = Profile.capture ~program:"fib" cpu in
  let folded = Profile.folded prof in
  let lines = String.split_on_char '\n' (String.trim folded) in
  checkb "non-empty" true (lines <> []);
  let re = Re.Pcre.re "^fib;(blk_\\d+_\\d+|other) (\\d+)$" |> Re.compile in
  let total =
    List.fold_left
      (fun acc line ->
        match Re.exec_opt re line with
        | Some g -> acc + int_of_string (Re.Group.get g 2)
        | None -> Alcotest.failf "bad folded line %S" line)
      0 lines
  in
  checki "folded weights sum to total cycles" (Profile.total_cycles prof) total

let test_speedscope_format () =
  let cpu, _ = run_profiled ~engine:Cpu.Fast (compiled "sieve") in
  let prof = Profile.capture ~program:"sieve" cpu in
  let j =
    Json.of_string_exn (Json.to_string (Profile.speedscope prof))
  in
  let frames =
    Json.(to_list_exn (member_exn "frames" (member_exn "shared" j)))
  in
  let p =
    match Json.(to_list_exn (member_exn "profiles" j)) with
    | [ p ] -> p
    | _ -> Alcotest.fail "expected one profile"
  in
  let samples = Json.(to_list_exn (member_exn "samples" p)) in
  let weights = Json.(to_list_exn (member_exn "weights" p)) in
  checki "samples = frames" (List.length frames) (List.length samples);
  checki "weights = samples" (List.length samples) (List.length weights);
  let wsum =
    List.fold_left (fun acc w -> acc + Json.to_int_exn w) 0 weights
  in
  checki "weights sum = endValue" Json.(to_int_exn (member_exn "endValue" p))
    wsum;
  checki "endValue = total cycles" (Profile.total_cycles prof) wsum

let test_map_spans () =
  (* every job gets exactly one named span on the worker lane that ran it,
     and the tracer never perturbs the results *)
  let module Span = Mips_obs.Span in
  let xs = List.init 20 Fun.id in
  let f x = x * x in
  let tracer = Span.tracer ~lanes:2 () in
  let ys =
    Mips_par.map_spans ~jobs:2 ~tracer
      ~name:(fun x -> Printf.sprintf "job_%d" x)
      f xs
  in
  Alcotest.(check (list int)) "results in submission order" (List.map f xs) ys;
  let spans = Span.tracer_spans tracer in
  checki "one span per job" (List.length xs) (List.length spans);
  let names = List.sort compare (List.map (fun s -> s.Span.sp_name) spans) in
  Alcotest.(check (list string))
    "span names cover the jobs"
    (List.sort compare (List.map (fun x -> Printf.sprintf "job_%d" x) xs))
    names;
  List.iter
    (fun s -> checkb "lane in range" true (s.Span.sp_lane >= 0 && s.Span.sp_lane < 2))
    spans;
  (* disabled tracer degrades to the plain map *)
  let zs = Mips_par.map_spans ~jobs:2 ~tracer:Span.no_tracer ~name:string_of_int f xs in
  Alcotest.(check (list int)) "no_tracer path" (List.map f xs) zs

(* The per-pc buffers grow with instruction memory: armed on an empty
   machine, they follow the program load and then a run off the end of
   the code, through never-written words up to the fetch fault at
   imem_words, and still reconcile. *)
let test_buffers_follow_imem () =
  let open Mips_isa in
  let code = [| Word.A (Alu.Movi8 (3, Reg.r 1)); Word.A (Alu.Movi8 (4, Reg.r 2)) |] in
  List.iter
    (fun engine ->
      let cpu, _ = run_profiled ~engine (Mips_machine.Program.make code, "") in
      let name = "off-end/" ^ Cpu.engine_name engine in
      let p = Option.get (Cpu.profile cpu) in
      checki (name ^ ": buffers as long as imem") (Array.length cpu.Cpu.imem)
        (Array.length p.Cpu.pr_counts);
      checki (name ^ ": every word below imem_words ran once")
        Cpu.default_config.Cpu.imem_words
        (Array.fold_left ( + ) 0 p.Cpu.pr_counts);
      check_reconciles name cpu (Profile.capture ~program:name cpu))
    [ Cpu.Ref; Cpu.Fast ]

let suite =
  [
    ( "profile",
      [
        Alcotest.test_case "attribution reconciles (delayed)" `Quick
          test_reconciliation_delayed;
        Alcotest.test_case "attribution reconciles (interlocked)" `Quick
          test_reconciliation_interlocked;
        Alcotest.test_case "profiling is passive" `Quick
          test_profiling_is_passive;
        Alcotest.test_case "engines agree on the profile" `Quick
          test_engines_agree;
        Alcotest.test_case "edges land on block leaders" `Quick
          test_edges_land_on_leaders;
        Alcotest.test_case "interlocked load+use pairs" `Quick
          test_interlocked_pairs;
        Alcotest.test_case "folded flamegraph format" `Quick
          test_folded_format;
        Alcotest.test_case "speedscope format" `Quick test_speedscope_format;
        Alcotest.test_case "map_spans lanes" `Quick test_map_spans;
        Alcotest.test_case "buffers follow imem" `Quick test_buffers_follow_imem;
      ] );
  ]
