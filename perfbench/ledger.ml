(* The per-layer ledger of the traced run.

   Most layers only run inside another public call (compiles happen inside
   Report.prepare, the kernel inside Soak.run_soak, the codecs inside
   Client.call), so the ledger replays the benchmark's inputs through each
   layer's own public functions, one span per call, and reads counts where
   the work happens.  Where a public function runs a lower layer inside
   itself (Parser.parse lexes, Emit.emit_program allocates registers,
   Soak.run_soak generates and reorganizes its programs), the lower layer's
   replay time is subtracted to give the upper layer's self time. *)

module Span = Mips_obs.Span
module Json = Mips_obs.Json
module Metrics = Mips_obs.Metrics
module Cpu = Mips_machine.Cpu
module Stats = Mips_machine.Stats
module Corpus = Mips_corpus.Corpus
module Pipeline = Mips_reorg.Pipeline

type t = {
  sp : Span.t;  (* lane 0 of the run's tracer *)
  tracer : Span.tracer;
  out : (string, float) Hashtbl.t;  (* metric -> value *)
}

let set l k v = Hashtbl.replace l.out k v
let add l k v = set l k (v +. Option.value ~default:0. (Hashtbl.find_opt l.out k))
let ratio a b = if b = 0. then 0. else a /. b

(* Time [f] inside a span named [name], charging the duration to [key]. *)
let timed l ?(key = "") name f =
  let v, dt = Stat.time (fun () -> Span.with_ l.sp name f) in
  if key <> "" then add l key dt;
  v

(* --- frontend, ir, codegen, reorg, predecode: the corpus compile chain --- *)

let compile_chain l =
  let module F = Mips_frontend in
  let lex = ref 0. and parse = ref 0. and tokens = ref 0 in
  let regalloc = ref 0. and emit = ref 0. in
  let filled = ref 0 and slots = ref 0 in
  let obs = Metrics.create () in
  let programs =
    List.concat_map
      (fun (e : Corpus.entry) ->
        let src = e.Corpus.source in
        let toks, t_lex = Stat.time (fun () -> timed l "frontend.lex" (fun () -> F.Lexer.tokenize src)) in
        let ast, t_parse = Stat.time (fun () -> timed l "frontend.parse" (fun () -> F.Parser.parse src)) in
        lex := !lex +. t_lex;
        parse := !parse +. Float.max 0. (t_parse -. t_lex);
        tokens := !tokens + List.length toks;
        let tast = timed l ~key:"frontend.check_s" "frontend.check" (fun () -> F.Semant.check ast) in
        List.map
          (fun (_, config) ->
            let ir = timed l ~key:"irgen.s" "irgen" (fun () -> Mips_ir.Irgen.lower config tast) in
            let funcs = ir.Mips_ir.Irgen.funcs in
            add l "irgen.ir_instrs"
              (float_of_int
                 (List.fold_left (fun a f -> a + List.length f.Mips_ir.Ir.body) 0 funcs));
            let allocs, t_ra =
              Stat.time (fun () ->
                  timed l "regalloc" (fun () -> List.map Mips_codegen.Regalloc.allocate funcs))
            in
            regalloc := !regalloc +. t_ra;
            add l "regalloc.spilled_vregs"
              (float_of_int
                 (List.fold_left
                    (fun a r -> a + r.Mips_codegen.Regalloc.spilled_vregs)
                    0 allocs));
            let asm, t_emit =
              Stat.time (fun () ->
                  timed l "emit" (fun () -> Mips_codegen.Emit.emit_program config ir))
            in
            emit := !emit +. Float.max 0. (t_emit -. t_ra);
            add l "emit.asm_lines" (float_of_int (List.length asm.Mips_reorg.Asm.lines));
            let program = ref None in
            List.iter
              (fun level ->
                let p, delay =
                  timed l ("reorg." ^ Pipeline.level_name level) (fun () ->
                      Pipeline.compile_with_stats ~obs ~level asm)
                in
                if level = Pipeline.Delay_filled then begin
                  program := Some p;
                  match delay with
                  | Some d ->
                      let f = d.Mips_reorg.Delay.scheme1 + d.Mips_reorg.Delay.scheme2
                              + d.Mips_reorg.Delay.scheme3 in
                      filled := !filled + f;
                      slots := !slots + f + d.Mips_reorg.Delay.unfilled
                  | None -> ()
                end)
              Pipeline.all_levels;
            Option.get !program)
          Inputs.targets)
      Corpus.all
  in
  set l "frontend.lex_s" !lex;
  set l "frontend.parse_s" !parse;
  set l "frontend.tokens_per_s" (ratio (float_of_int !tokens) !lex);
  set l "regalloc.s" !regalloc;
  set l "emit.s" !emit;
  List.iter
    (fun pass -> set l ("reorg." ^ pass ^ "_s") (Metrics.seconds obs ("reorg." ^ pass)))
    [ "partition"; "schedule"; "delay_fill"; "pack_terminator"; "assemble" ];
  set l "reorg.static_words"
    (float_of_int
       (List.fold_left (fun a p -> a + Mips_machine.Program.static_count p) 0 programs));
  set l "reorg.delay_filled_ratio" (ratio (float_of_int !filled) (float_of_int !slots));
  List.iter
    (fun p -> ignore (timed l ~key:"predecode.s" "predecode" (fun () -> Mips_machine.Predecode.of_program p)))
    programs

(* --- machine and jit: every engine on the corpus --------------------------- *)

(* The reference interpreter skips the two Puzzles (about 5 s a run each);
   its ratios are taken over the programs it did run. *)
let ref_skips = [ "puzzle0"; "puzzle1" ]

let engines l =
  let progs = Inputs.compile_all () and expected = Inputs.load_expected () in
  let failures = ref [] in
  (* every run is checked against the reference results, statistics too *)
  let run engine p =
    let e = Cpu.engine_name engine in
    let minor0 = Gc.minor_words () in
    let outcome, dt =
      Stat.time (fun () -> timed l ("engine." ^ e ^ "." ^ p.Inputs.target) (fun () -> Inputs.run ~engine p))
    in
    Option.iter (fun m -> failures := (e ^ ": " ^ m) :: !failures) (Inputs.check expected p outcome);
    (dt, Gc.minor_words () -. minor0, snd outcome)
  in
  let jit_words = ref 0. and jit_time = ref 0. in
  List.iter
    (fun (target, _) ->
      let time = Hashtbl.create 8 and minor = Hashtbl.create 8 and words = Hashtbl.create 8 in
      let bump tbl k v = Hashtbl.replace tbl k (v +. Option.value ~default:0. (Hashtbl.find_opt tbl k)) in
      let warmup = ref 0. and jit_vs_ref = ref 0. and ref_time = ref 0. in
      List.iter
        (fun p ->
          let name = p.Inputs.entry.Corpus.name in
          let per =
            List.filter_map
              (fun engine ->
                if engine = Cpu.Ref && List.mem name ref_skips then None
                else begin
                  let dt, mw, stats = run engine p in
                  let e = Cpu.engine_name engine in
                  bump time e dt;
                  bump minor e mw;
                  bump words e (float_of_int stats.Stats.words);
                  Some (e, (dt, stats))
                end)
              [ Cpu.Ref; Cpu.Fast; Cpu.Jit ]
          in
          let jit_dt, jit_stats = List.assoc "jit" per in
          (match List.assoc_opt "ref" per with
          | Some (ref_dt, _) ->
              jit_vs_ref := !jit_vs_ref +. jit_dt;
              ref_time := !ref_time +. ref_dt
          | None -> ());
          if target = "byte" then
            set l ("engine.jit.byte.speedup_vs_fast." ^ name) (ratio (fst (List.assoc "fast" per)) jit_dt);
          if not (List.mem name ref_skips) then begin
            (* the same program again: the first run's premium *)
            let warm_dt, _, _ = run Cpu.Jit p in
            warmup := !warmup +. (jit_dt -. warm_dt)
          end;
          add l "guest.words" (float_of_int jit_stats.Stats.words);
          add l "guest.stalls" (float_of_int jit_stats.Stats.stall_cycles))
        (List.filter (fun p -> p.Inputs.target = target) progs);
      List.iter
        (fun e ->
          let w = Hashtbl.find words e in
          set l (Printf.sprintf "engine.%s.%s.ns_per_word" e target) (1e9 *. ratio (Hashtbl.find time e) w);
          set l (Printf.sprintf "engine.%s.%s.minor_words_per_word" e target) (ratio (Hashtbl.find minor e) w))
        [ "ref"; "fast"; "jit" ];
      jit_words := !jit_words +. Hashtbl.find words "jit";
      jit_time := !jit_time +. Hashtbl.find time "jit";
      set l (Printf.sprintf "engine.jit.%s.warmup_s" target) !warmup;
      set l (Printf.sprintf "engine.jit.%s.speedup_vs_ref" target) (ratio !ref_time !jit_vs_ref);
      set l (Printf.sprintf "engine.jit.%s.speedup_vs_fast" target)
        (ratio (Hashtbl.find time "fast") (Hashtbl.find time "jit")))
    Inputs.targets;
  (* what corpus_sim's timed loop executes: the jit over both modes *)
  set l "guest.mips" (1e-6 *. ratio !jit_words !jit_time);
  !failures

(* --- os, fault, soak: a seed of fault_soak's pool -------------------------------- *)

let soak l (ctx : Workload.ctx) =
  let seed = W_soak.pool.(0) in
  let progen = ref 0. and reorg = ref 0. in
  for j = 0 to W_soak.programs - 1 do
    let asm, dt =
      Stat.time (fun () ->
          timed l "soak.progen" (fun () ->
              Mips_soak.Progen.generate ~segments:W_soak.segments ~seed:((seed * 0x1000) + j) ()))
    in
    progen := !progen +. dt;
    let _, dt = Stat.time (fun () -> timed l "soak.reorg" (fun () -> Pipeline.compile asm)) in
    reorg := !reorg +. dt
  done;
  let s, t_soak = Stat.time (fun () -> timed l "soak.run_soak" (fun () -> W_soak.kernel_soak seed)) in
  let diffs =
    timed l ~key:"soak.differential_s" "soak.differential" (fun () ->
        Mips_soak.Soak.differential_sweep ~jobs:ctx.nproc ~segments:W_soak.segments ~seed
          ~count:W_soak.differential ())
  in
  set l "soak.progen_s" !progen;
  set l "soak.kernel_s" (Float.max 0. (t_soak -. !progen -. !reorg));
  let open Mips_soak.Soak in
  set l "kernel.switches" (float_of_int s.switches);
  set l "kernel.page_faults" (float_of_int s.page_faults);
  set l "kernel.transient_retries" (float_of_int s.transient_retries);
  set l "soak.injected"
    (float_of_int
       (List.fold_left (fun a (_, n) -> a + n) 0 s.injected
       + List.fold_left (fun a (d : diff) -> a + d.injected) 0 diffs));
  Option.to_list (W_soak.check s diffs)

(* --- par, artifact, analysis: one cold report at each pool size ---------------- *)

let report l (ctx : Workload.ctx) =
  let digest = Inputs.load_report_digest () in
  let env = { W_report.digest } in
  let cold ~jobs tracer = Stat.time (fun () -> W_report.cold_report ~jobs tracer) in
  let c0 = Mips_artifact.counters () in
  let serial_tracer = Span.tracer ~clock:Stat.now ~lanes:1 () in
  let (fj1, text1), serial = cold ~jobs:1 serial_tracer in
  let c1 = Mips_artifact.counters () in
  let (fj2, text2), parallel = cold ~jobs:ctx.nproc l.tracer in
  set l "report.serial_s" serial;
  set l "report.parallel_s" parallel;
  set l "par.report_speedup" (ratio serial parallel);
  set l "par.efficiency" (ratio (ratio serial parallel) (float_of_int ctx.nproc));
  let hits = c1.Mips_artifact.hits - c0.Mips_artifact.hits in
  let misses = c1.Mips_artifact.misses - c0.Mips_artifact.misses in
  set l "artifact.hits" (float_of_int hits);
  set l "artifact.misses" (float_of_int misses);
  set l "artifact.hit_ratio" (ratio (float_of_int hits) (float_of_int (hits + misses)));
  (* the serial report's spans: the two phases, and the job spans that
     prepare_supervised records through its tracer *)
  let spans = Span.tracer_spans serial_tracer in
  let self =
    Spans.self_by (Spans.nodes spans) ~key:(fun name ->
        List.find_opt (fun p -> Spans.prefix p name)
          [ "report.prepare"; "report.render"; "sim:"; "level:"; "asm:"; "os:" ])
  in
  set l "report.prepare_s" (self "report.prepare");
  set l "report.render_s" (self "report.render");
  List.iter
    (fun k -> set l ("report.span." ^ k ^ "_s") (self (k ^ ":")))
    [ "sim"; "level"; "asm"; "os" ];
  let failures =
    List.filter_map Fun.id
      [ W_report.check env ~jobs:1 (fj1, text1);
        W_report.check env ~jobs:ctx.nproc (fj2, text2);
        (if text1 <> text2 then Some "serial and parallel report JSON differ" else None) ]
  in
  (spans, failures)

(* --- daemon: codecs, local execution and round trips on daemon_rpc's requests -- *)

let daemon l (ctx : Workload.ctx) =
  let module Protocol = Mips_daemon.Protocol in
  let module Frame = Mips_daemon.Frame in
  let module Client = Mips_daemon.Client in
  let denv = W_daemon.setup ctx in
  let metrics = Metrics.create () in
  let failures = ref [] in
  let local = ref [] and plain = ref [] and session = ref [] in
  let codec = Hashtbl.create 4 in
  let per_call name reps f =
    let _, dt = Stat.time (fun () -> for _ = 1 to reps do ignore (Sys.opaque_identity (f ())) done) in
    Hashtbl.replace codec name
      ((1e6 *. dt /. float_of_int reps) +. Option.value ~default:0. (Hashtbl.find_opt codec name))
  in
  let reps = 3 and codec_reps = 200 in
  let payloads = ref 0 in
  Array.iteri
    (fun i p ->
      let med f = Stat.median (List.init reps (fun _ -> snd (Stat.time f))) in
      (* on a domain of its own, as the daemon's workers execute *)
      let worker = Span.lane l.tracer 1 in
      local :=
        Domain.join
          (Domain.spawn (fun () ->
               med (fun () ->
                   Span.with_ worker "daemon.local_exec" (fun () ->
                       ignore (Inputs.run ~engine:Cpu.Ref p)))))
        :: !local;
      let call ?session () =
        let reply =
          timed l "client.call" (fun () ->
              Client.call ~metrics denv.W_daemon.socket
                (W_daemon.request ?session ~tenant:"ledger" p))
        in
        Option.iter (fun m -> failures := m :: !failures) (W_daemon.check denv p reply);
        reply
      in
      plain := med (fun () -> ignore (call ())) :: !plain;
      let n = ref 0 in
      session :=
        med (fun () ->
            incr n;
            ignore (call ~session:(Printf.sprintf "ledger-%d-%d-%d" ctx.seed i !n) ()))
        :: !session;
      match call () with
      | Ok resp ->
          let req = W_daemon.request ~tenant:"ledger" p in
          let req_bytes = Protocol.encode_request req in
          let resp_bytes = Protocol.encode_response resp in
          List.iter
            (fun payload ->
              let frame = Frame.encode payload in
              per_call "frame.encode_us" codec_reps (fun () -> Frame.encode payload);
              per_call "frame.decode_us" codec_reps (fun () -> Frame.decode frame);
              incr payloads)
            [ req_bytes; resp_bytes ];
          per_call "protocol.encode_us" codec_reps (fun () -> Protocol.encode_request req);
          per_call "protocol.encode_us" codec_reps (fun () -> Protocol.encode_response resp);
          per_call "protocol.decode_us" codec_reps (fun () -> Protocol.decode_request req_bytes);
          per_call "protocol.decode_us" codec_reps (fun () -> Protocol.decode_response resp_bytes)
      | Error _ -> ())
    denv.W_daemon.progs;
  (* each codec figure is per payload, averaged over requests and replies *)
  Hashtbl.iter (fun k v -> set l k (ratio v (float_of_int !payloads))) codec;
  let local_p50 = Stat.median !local and plain_p50 = Stat.median !plain in
  set l "daemon.local_exec_ms" (1000. *. local_p50);
  set l "daemon.overhead_ms" (1000. *. (plain_p50 -. local_p50));
  set l "daemon.session_extra_ms" (1000. *. (Stat.median !session -. plain_p50));
  set l "client.retries" (float_of_int (Metrics.count metrics "client.retries"));
  set l "client.call_failed" (float_of_int (Metrics.count metrics "client.call_failed"));
  let status = Mips_daemon.Server.status_json denv.W_daemon.server in
  let num path =
    match List.fold_left (fun j k -> Option.bind j (Json.member k)) (Some status) path with
    | Some (Json.Int n) -> float_of_int n
    | _ -> 0.
  in
  set l "admission.executed" (num [ "admission"; "executed" ]);
  set l "admission.rejected_overloaded" (num [ "admission"; "rejected_overloaded" ]);
  set l "daemon.replay.hits" (num [ "metrics"; "counters"; "daemon.replay.hits" ]);
  W_daemon.teardown denv;
  !failures

(* --- the whole ledger ---------------------------------------------------------- *)

(* Every per-layer metric, in BENCHMARK.json's order. *)
let names =
  [ "frontend.lex_s"; "frontend.parse_s"; "frontend.check_s"; "frontend.tokens_per_s";
    "irgen.s"; "regalloc.s"; "emit.s"; "irgen.ir_instrs"; "regalloc.spilled_vregs";
    "emit.asm_lines";
    "reorg.partition_s"; "reorg.schedule_s"; "reorg.delay_fill_s";
    "reorg.pack_terminator_s"; "reorg.assemble_s"; "reorg.static_words";
    "reorg.delay_filled_ratio";
    "predecode.s" ]
  @ List.concat_map
      (fun e ->
        List.concat_map
          (fun (c, _) ->
            [ Printf.sprintf "engine.%s.%s.ns_per_word" e c;
              Printf.sprintf "engine.%s.%s.minor_words_per_word" e c ])
          Inputs.targets)
      [ "ref"; "fast"; "jit" ]
  @ List.concat_map
      (fun (c, _) ->
        List.map (Printf.sprintf "engine.jit.%s.%s" c) [ "warmup_s"; "speedup_vs_ref"; "speedup_vs_fast" ])
      Inputs.targets
  @ List.map (fun (e : Corpus.entry) -> "engine.jit.byte.speedup_vs_fast." ^ e.Corpus.name) Corpus.all
  @ [ "guest.words"; "guest.stalls"; "guest.mips";
      "soak.progen_s"; "soak.kernel_s"; "soak.differential_s"; "kernel.switches";
      "kernel.page_faults"; "kernel.transient_retries"; "soak.injected";
      "par.report_speedup"; "par.efficiency"; "report.serial_s"; "report.parallel_s";
      "artifact.hits"; "artifact.misses"; "artifact.hit_ratio";
      "report.prepare_s"; "report.render_s"; "report.span.sim_s"; "report.span.level_s";
      "report.span.asm_s"; "report.span.os_s";
      "frame.encode_us"; "frame.decode_us"; "protocol.encode_us"; "protocol.decode_us";
      "daemon.local_exec_ms"; "daemon.overhead_ms"; "daemon.session_extra_ms";
      "client.retries"; "client.call_failed"; "admission.executed";
      "admission.rejected_overloaded"; "daemon.replay.hits";
      "trace.overhead_frac"; "trace.residual_frac" ]

(* Run every layer; returns the readings, the recorded spans and any output
   check that failed. *)
let run (ctx : Workload.ctx) =
  let tracer = Span.tracer ~clock:Stat.now ~lanes:ctx.nproc () in
  let l = { sp = Span.lane tracer 0; tracer; out = Hashtbl.create 128 } in
  compile_chain l;
  let engine_failures = engines l in
  let soak_failures = soak l ctx in
  let report_spans, report_failures = report l ctx in
  let daemon_failures = daemon l ctx in
  ( l.out,
    report_spans @ Span.tracer_spans tracer,
    engine_failures @ soak_failures @ report_failures @ daemon_failures )
