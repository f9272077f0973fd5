(* Differential tests for the predecoded fast execution engine.

   The equivalence contract (see Cpu's interface): under any machine
   configuration, any program and any fault plan, the fast engine must
   leave every architecturally visible artifact — registers, data memory,
   the PC chain, EPCs, monitor output, exit status, and the complete
   Stats record including stall-pair attribution and exception tallies —
   bit-identical to the reference interpreter.  Here the seeded soak
   generator is the oracle: every fixed seed is run through both engines,
   raw and reorganized, clean and faulted, and the whole final state is
   diffed. *)

open Mips_machine
open Testutil
module Plan = Mips_fault.Plan
module Progen = Mips_soak.Progen
module Json = Mips_obs.Json

(* Everything one engine run leaves behind, flattened to comparable data.
   Stats goes through its (total) JSON rendering, which includes the
   stall-pair table and the exception tallies. *)
type snapshot = {
  regs : int list;
  dmem_hash : int;
  dmem_head : int list;  (* the generated programs' static data window *)
  pc_chain : int * int * int;
  epcs : int list;
  pending : string;
  output : string;
  exit_status : int option;
  halted : bool;
  fault : string option;
  retries : int;
  stats : string;
}

let hash_dmem cpu words =
  let h = ref 0 in
  for i = 0 to words - 1 do
    h := (!h * 31) + Cpu.read_data cpu i
  done;
  !h land max_int

let snapshot (cpu : Cpu.t) (res : Hosted.result) =
  {
    regs = List.init 16 (fun i -> Cpu.get_reg cpu (Mips_isa.Reg.of_int i));
    dmem_hash = hash_dmem cpu (Cpu.config cpu).Cpu.dmem_words;
    dmem_head = List.init Progen.data_words (Cpu.read_data cpu);
    pc_chain = Cpu.pc_chain cpu;
    epcs = List.init 3 (Cpu.epc cpu);
    pending = "";
    output = res.Hosted.output;
    exit_status = res.Hosted.exit_status;
    halted = res.Hosted.halted;
    fault =
      (match res.Hosted.fault with
      | Some (c, d) -> Some (Printf.sprintf "%s/%d" (Cause.name c) d)
      | None -> None);
    retries = res.Hosted.retries;
    stats = Json.to_string (Stats.to_json (Cpu.stats cpu));
  }

let run_one ~config ~plan ~engine program =
  let cpu = Cpu.create ~config () in
  (match plan with
  | Some cfg -> Cpu.set_fault_plan cpu (Plan.make cfg)
  | None -> ());
  let res = Hosted.run_program_on ~fuel:500_000 ~engine cpu program in
  snapshot cpu res

let explain_diff name seed a b =
  let fail fmt = Alcotest.failf ("seed %d, %s: " ^^ fmt) seed name in
  if a.output <> b.output then fail "output %S vs fast %S" a.output b.output;
  if a.exit_status <> b.exit_status then fail "exit status differs";
  if a.halted <> b.halted then fail "halted %b vs fast %b" a.halted b.halted;
  if a.fault <> b.fault then fail "fault attribution differs";
  if a.retries <> b.retries then fail "retries %d vs fast %d" a.retries b.retries;
  if a.regs <> b.regs then fail "register file differs";
  if a.pc_chain <> b.pc_chain then fail "pc chain differs";
  if a.epcs <> b.epcs then fail "EPCs differ";
  if a.dmem_head <> b.dmem_head then fail "static data window differs";
  if a.dmem_hash <> b.dmem_hash then fail "data memory differs";
  if a.stats <> b.stats then fail "stats differ:\n  ref  %s\n  fast %s" a.stats b.stats

(* 50+ fixed seeds: deterministic, so a failure names its seed *)
let seeds = List.init 56 (fun i -> (i * 37) + 1)

let variants seed =
  let plan_cfg =
    { Plan.quiet with Plan.seed = seed + 0x5011; flaky_rate = 0.01; irq_rate = 0.005 }
  in
  [ ("reorganized", Cpu.default_config, None);
    ("raw-interlocked", Cpu.interlocked_config, None);
    ("reorganized-byte", Cpu.byte_addressed_config, None);
    ("reorganized-faulted", Cpu.default_config, Some plan_cfg) ]

let test_differential () =
  List.iter
    (fun seed ->
      let asm = Progen.generate ~seed () in
      let reorganized = Mips_reorg.Pipeline.compile asm in
      let raw = Mips_reorg.Pipeline.compile_raw asm in
      List.iter
        (fun (vname, config, plan) ->
          let program =
            if config.Cpu.interlock then raw else reorganized
          in
          let r = run_one ~config ~plan ~engine:Cpu.Ref program in
          let f = run_one ~config ~plan ~engine:Cpu.Fast program in
          explain_diff vname seed r f;
          (* the jit engine under the same oracle: compiled traces where
             eligible, fallback everywhere else (interlocked and byte
             configs, armed fault plans), same bit-exact contract *)
          let j = run_one ~config ~plan ~engine:Cpu.Jit program in
          explain_diff (vname ^ "-jit") seed r j)
        (variants seed))
    seeds

(* Engines must also agree when steps interleave arbitrarily: alternate
   step/step_fast within one run and the result must match an all-reference
   run (the fallback conditions make this the kernel's actual regime). *)
let test_interleaved_steps () =
  List.iter
    (fun seed ->
      let program = Mips_reorg.Pipeline.compile (Progen.generate ~seed ()) in
      let exec stepf =
        let cpu = Cpu.create () in
        Cpu.load_program cpu program;
        let exited = ref None in
        let i = ref 0 in
        while !exited = None && !i < 200_000 do
          (match stepf !i cpu with
          | Cpu.Stepped -> ()
          | Cpu.Dispatched Cause.Trap ->
              let code = (Cpu.surprise cpu).Surprise.cause_detail in
              if code = Monitor.exit_ then
                exited := Some (Cpu.get_reg cpu Mips_isa.Reg.scratch0)
              else begin
                (* monitor calls other than exit: skip output, resume *)
                Cpu.set_surprise cpu (Surprise.pop (Cpu.surprise cpu));
                Cpu.set_pc_chain cpu (Cpu.epc cpu 0, Cpu.epc cpu 1, Cpu.epc cpu 2)
              end
          | Cpu.Dispatched _ -> Alcotest.failf "seed %d: unexpected fault" seed);
          incr i
        done;
        ( !exited,
          List.init 16 (fun r -> Cpu.get_reg cpu (Mips_isa.Reg.of_int r)),
          Json.to_string (Stats.to_json (Cpu.stats cpu)) )
      in
      let ref_out = exec (fun _ cpu -> Cpu.step cpu) in
      let mixed =
        exec (fun i cpu -> if i land 7 < 3 then Cpu.step cpu else Cpu.step_fast cpu)
      in
      if ref_out <> mixed then
        Alcotest.failf "seed %d: interleaved stepping diverged" seed)
    [ 3; 11; 29 ]

(* Self-modifying code: write_code must invalidate the compiled slot. *)
let test_write_code_invalidation () =
  let open Mips_isa in
  let cpu = Cpu.create () in
  let movi c d = Word.A (Alu.Movi8 (c, Reg.r d)) in
  Cpu.write_code cpu 0 (movi 1 1);
  Cpu.write_code cpu 1 (movi 2 2);
  Cpu.write_code cpu 2 (movi 3 3);
  Cpu.set_pc cpu 0;
  ignore (Cpu.step_fast cpu);
  ignore (Cpu.step_fast cpu);
  ignore (Cpu.step_fast cpu);
  check_int "r2 first pass" 2 (Cpu.get_reg cpu (Reg.r 2));
  (* patch the already-executed (hence already-compiled) slot 1 *)
  Cpu.write_code cpu 1 (movi 9 2);
  Cpu.set_pc cpu 0;
  ignore (Cpu.step_fast cpu);
  ignore (Cpu.step_fast cpu);
  check_int "r2 after patch" 9 (Cpu.get_reg cpu (Reg.r 2))

(* The kernel under the fast engine: quantum interrupts, demand paging and
   monitor traps all force reference-path cycles mid-run; scheduling and
   per-process outcomes must not change. *)
let kernel_report engine seeds =
  let k = Mips_os.Kernel.create ~quantum:300 ~engine () in
  List.iter
    (fun seed ->
      let program = Mips_reorg.Pipeline.compile (Progen.generate ~seed ()) in
      Mips_os.Kernel.spawn k ~name:(Progen.name ~seed) program)
    seeds;
  let r = Mips_os.Kernel.run ~fuel:2_000_000 k in
  ( Json.to_string (Mips_os.Kernel.report_json r),
    Json.to_string (Stats.to_json (Cpu.stats (Mips_os.Kernel.cpu k))) )

let test_kernel_differential () =
  let seeds = [ 5; 17; 23 ] in
  let ref_report, ref_stats = kernel_report Cpu.Ref seeds in
  let fast_report, fast_stats = kernel_report Cpu.Fast seeds in
  check_string "kernel report identical" ref_report fast_report;
  check_string "kernel machine stats identical" ref_stats fast_stats;
  let jit_report, jit_stats = kernel_report Cpu.Jit seeds in
  check_string "kernel report identical (jit)" ref_report jit_report;
  check_string "kernel machine stats identical (jit)" ref_stats jit_stats

(* --- trace-JIT specific tests ---------------------------------------------- *)

(* A hot loop compiled into a trace, then patched — once in the middle of
   the compiled body, once at its entry.  The write must invalidate the
   trace ([Cpu.write_code] consults the coverage map), so the machine
   behaves as if the trace never existed.  The oracle is a reference
   machine driven through the identical heat/patch/rerun sequence; the
   expected accumulator values are also asserted directly. *)
let test_jit_smc_hot_block () =
  let open Mips_isa in
  let movi8 c d = Word.A (Alu.Movi8 (c, Reg.r d)) in
  let rr i = Operand.reg (Reg.r i) in
  let i4 = Operand.imm4 in
  let add a b d = Word.A (Alu.Binop (Alu.Add, a, b, Reg.r d)) in
  let code =
    [| movi8 0 1; (* 0: i := 0 *)
       movi8 0 2; (* 1: acc := 0 *)
       movi8 200 3; (* 2: bound *)
       add (rr 2) (i4 1) 2; (* 3: loop entry: acc += 1 *)
       add (rr 2) (i4 2) 2; (* 4: acc += 2  (mid-trace patch point) *)
       add (rr 1) (i4 1) 1; (* 5: i += 1 *)
       Word.B (Branch.Cbr (Cond.Lt, rr 1, rr 3, 3)); (* 6 *)
       Word.Nop; (* 7: delay slot *)
       movi8 0 10; (* 8: exit status *)
       Word.B (Branch.Trap Monitor.exit_) (* 9 *) |]
  in
  let drive engine =
    let cpu = Cpu.create () in
    Cpu.load_program cpu (Program.make code);
    let go () =
      Cpu.set_pc cpu 0;
      let res = Hosted.run ~engine cpu in
      check "smc run halted" true res.Hosted.halted;
      ( Cpu.get_reg cpu (Mips_isa.Reg.r 2),
        Json.to_string (Stats.to_json (Cpu.stats cpu)) )
    in
    let heat = go () in
    let steady = go () in
    (* patch inside the compiled body, not at its entry *)
    Cpu.write_code cpu 4 (add (rr 2) (i4 5) 2);
    let mid = go () in
    (* patch the trace entry itself *)
    Cpu.write_code cpu 3 (movi8 9 2);
    let entry = go () in
    [ heat; steady; mid; entry ]
  in
  let ref_runs = drive Cpu.Ref and jit_runs = drive Cpu.Jit in
  (match jit_runs with
  | [ (a, _); (b, _); (c, _); (d, _) ] ->
      check_int "acc after heat" 600 a;
      check_int "acc steady-state" 600 b;
      check_int "acc after mid-trace patch" 1200 c;
      check_int "acc after entry patch" 14 d
  | _ -> assert false);
  List.iteri
    (fun i ((racc, rstats), (jacc, jstats)) ->
      check_int (Printf.sprintf "smc run %d acc" i) racc jacc;
      check_string (Printf.sprintf "smc run %d stats" i) rstats jstats)
    (List.combine ref_runs jit_runs)

(* The trace tables cover the code loaded when they were armed, not all of
   imem.  Code written above that mark afterwards still runs (stepped,
   counted as cold), and a program reload re-sizes the tables so the same
   code is traced. *)
let test_jit_code_mark () =
  let open Mips_isa in
  let movi8 c d = Word.A (Alu.Movi8 (c, Reg.r d)) in
  let rr i = Operand.reg (Reg.r i) in
  let add a b d = Word.A (Alu.Binop (Alu.Add, a, b, Reg.r d)) in
  let exit_ = [| Word.A (Alu.Mov (rr 2, Reg.scratch0)); Word.B (Branch.Trap Monitor.exit_) |] in
  let loop at =
    Array.append
      [| movi8 0 1; movi8 0 2; movi8 200 3;
         add (rr 2) (Operand.imm4 3) 2; (* at + 3: loop *)
         add (rr 1) (Operand.imm4 1) 1;
         Word.B (Branch.Cbr (Cond.Lt, rr 1, rr 3, at + 3));
         Word.Nop |]
      exit_
  in
  let small = Program.make (loop 0) in
  let high = 300 in
  let drive engine =
    let cpu = Cpu.create () in
    let run () =
      let res = Hosted.run ~engine cpu in
      check "halted" true res.Hosted.halted;
      Cpu.get_reg cpu (Reg.r 2)
    in
    Cpu.load_program cpu small;
    let a = run () in
    let tables = Array.length cpu.Cpu.jit_code in
    Array.iteri (fun i w -> Cpu.write_code cpu (high + i) w) (loop high);
    Cpu.set_pc cpu high;
    let b = run () in
    let cold =
      (Cpu.coverage cpu).Cpu.stepped.(Option.get
                                         (Array.find_index (( = ) "cold")
                                            Cpu.fallback_reasons))
    in
    Cpu.load_program cpu (Program.make ~entry:high (Array.append (Array.make high Word.Nop) (loop high)));
    let traced0 = (Cpu.coverage cpu).Cpu.trace_words in
    let c = run () in
    ( [ a; b; c ],
      Json.to_string (Stats.to_json (Cpu.stats cpu)),
      (tables, cold, (Cpu.coverage cpu).Cpu.trace_words - traced0) )
  in
  let rv, rs, _ = drive Cpu.Ref in
  let jv, js, (tables, cold, traced) = drive Cpu.Jit in
  check "accumulators match reference" true (rv = jv);
  check_string "stats match reference" rs js;
  check_int "tables sized to the loaded code" (Array.length (loop 0)) tables;
  check "code above the mark stepped as cold" true (cold >= 600);
  check "reloaded code traced" true (traced > 0)

(* Checkpoint/resume under the jit engine: interrupt a run mid-flight,
   restore the snapshot on a fresh machine (empty trace cache), resume
   under jit, and the completed run must be bit-identical to an
   uninterrupted reference run. *)
let test_jit_checkpoint_resume () =
  let module Snapshot = Mips_resilience.Snapshot in
  List.iter
    (fun seed ->
      let program = Mips_reorg.Pipeline.compile (Progen.generate ~seed ()) in
      let uninterrupted =
        let cpu = Cpu.create () in
        let res = Hosted.run_program_on ~fuel:200_000 ~engine:Cpu.Ref cpu program in
        (snapshot cpu res, Snapshot.machine_to_string cpu)
      in
      let saved = ref None in
      let cpu = Cpu.create () in
      Cpu.load_program cpu program;
      let _first =
        Hosted.run ~fuel:200_000 ~engine:Cpu.Jit
          ~checkpoint:
            ( 5_000,
              fun h ->
                if !saved = None then
                  saved := Some (h, Snapshot.machine_to_string cpu) )
          cpu
      in
      match !saved with
      | None -> ()  (* program finished before the first boundary *)
      | Some (h, machine) -> (
          let cpu' = Cpu.create () in
          match Snapshot.restore_machine cpu' machine with
          | Error e -> Alcotest.fail (Snapshot.error_to_string e)
          | Ok () ->
              let res =
                Hosted.run ~fuel:h.Hosted.h_fuel_left ~resume:h ~engine:Cpu.Jit
                  cpu'
              in
              let got = (snapshot cpu' res, Snapshot.machine_to_string cpu') in
              if got <> uninterrupted then
                Alcotest.failf "seed %d: jit resume diverged from reference" seed))
    [ 7; 19; 41 ]

(* --- byte-addressed traces ---------------------------------------------- *)

(* Every coverage count reconciles with the run's own statistics: a fresh
   machine run start to finish under jit executes each word either inside
   a trace or stepped, never both. *)
let check_coverage_total name (cpu : Cpu.t) =
  let c = Cpu.coverage cpu in
  check_int (name ^ ": trace + stepped words = Stats.words")
    (Cpu.stats cpu).Stats.words
    (c.Cpu.trace_words + Array.fold_left ( + ) 0 c.Cpu.stepped)

(* (a) The corpus through the trace JIT and the reference interpreter, on
   both machines.  The soak generator only emits word-addressed references,
   so this is what drives compiled byte loads, byte stores, misalignment
   checks and the per-word weight replay of the byte machine. *)
let test_corpus_jit_vs_ref () =
  let traced = Hashtbl.create 2 and words = Hashtbl.create 2 in
  let bump tbl k n =
    Hashtbl.replace tbl k (n + Option.value ~default:0 (Hashtbl.find_opt tbl k))
  in
  List.iter
    (fun (e : Mips_corpus.Corpus.entry) ->
      if not (Mips_analysis.Refpatterns.heavy e) then
        List.iter
          (fun (mname, config) ->
            let program =
              Mips_artifact.compiled ~config e.Mips_corpus.Corpus.source
            in
            let run engine =
              let cpu =
                Cpu.create ~config:(Mips_codegen.Compile.machine_config config) ()
              in
              let res =
                Hosted.run_program_on ~fuel:Mips_artifact.default_fuel
                  ~input:e.Mips_corpus.Corpus.input ~engine cpu program
              in
              (cpu, snapshot cpu res)
            in
            let name = e.Mips_corpus.Corpus.name ^ "/" ^ mname in
            let _, r = run Cpu.Ref in
            let jcpu, j = run Cpu.Jit in
            explain_diff name 0 r j;
            check_coverage_total name jcpu;
            bump traced mname (Cpu.coverage jcpu).Cpu.trace_words;
            bump words mname (Cpu.stats jcpu).Stats.words)
          [ ("word", Mips_ir.Config.default); ("byte", Mips_ir.Config.byte_machine) ])
    Mips_corpus.Corpus.all;
  (* and the traces carry the bulk of the work on both machines *)
  List.iter
    (fun m ->
      let share =
        float_of_int (Hashtbl.find traced m) /. float_of_int (Hashtbl.find words m)
      in
      if share < 0.9 then Alcotest.failf "%s machine: trace share %.3f < 0.9" m share)
    [ "word"; "byte" ]

(* (b) Hand-built hot loops on the byte machine.  Each is run through the
   reference interpreter and the JIT, under both unhandled-fault policies
   (halt at the fault, or skip the faulting word and carry on), and the
   whole final state must agree. *)
module Hand = struct
  open Mips_isa

  let rr i = Operand.reg (Reg.r i)
  let i4 = Operand.imm4
  let movi c d = Word.A (Alu.Movi8 (c, Reg.r d))
  let bin op a b d = Word.A (Alu.Binop (op, a, b, Reg.r d))
  let add a b d = bin Alu.Add a b d
  let ld w a d = Word.M (Mem.Load (w, a, Reg.r d))
  let st w s a = Word.M (Mem.Store (w, Reg.r s, a))
  let disp r n = Mem.Disp (Reg.r r, n)
  let cbr c a b tgt = Word.B (Branch.Cbr (c, a, b, tgt))
  let exit_with r =
    [ Word.A (Alu.Mov (rr r, Reg.scratch0)); Word.B (Branch.Trap Monitor.exit_) ]

  (* char/byte notes on the byte-sized references, so the batched
     reference classes are exercised too *)
  let program code =
    let notes =
      Array.map
        (fun w ->
          match Word.mem w with
          | Some (Mem.Load (Mem.W8, _, _) | Mem.Store (Mem.W8, _, _)) ->
              Note.make ~char_data:true ~byte_sized:true ()
          | _ -> Note.plain)
        code
    in
    Program.make ~notes ~data:[ (16, 0x01020304); (17, -7) ] code

  (* A W32 load whose address turns misaligned on iteration 100, in the
     middle of a spinning trace (body index 2, after iterations have been
     batched), next to a W32 store. *)
  let misaligned =
    Array.append
      [| movi 64 1; (* 0: base byte address (word 16) *)
         movi 0 4; (* 1: i *)
         movi 150 3; (* 2: bound *)
         movi 100 7; (* 3: faulting iteration *)
         movi 0 6; (* 4: misalignment *)
         add (rr 4) (i4 1) 4; (* 5: loop: i += 1 *)
         Word.A (Alu.Setc (Cond.Eq, rr 4, rr 7, Reg.r 6)); (* 6 *)
         ld Mem.W32 (Mem.Idx (Reg.r 1, Reg.r 6)) 2; (* 7: faults when r6 = 1 *)
         st Mem.W32 4 (disp 1 8); (* 8 *)
         add (rr 8) (rr 2) 8; (* 9 *)
         cbr Cond.Lt (rr 4) (rr 3) 5; (* 10 *)
         Word.Nop (* 11: delay slot *) |]
      (Array.of_list (exit_with 8))

  (* Byte store, then a W32 reload of the same word, extract/insert with
     the byte-select register, a byte load feeding an add (the fused
     load+use pair), and a packed ALU + byte-load word — a spin loop full
     of memory-busy words, so every iteration replays fractional weights.
     A second, ALU-only loop then runs 16320 iterations on the
     now-fractional weighted-cycle cell: for some first-loop bounds, adding
     its unit weights in one batch would round differently from adding
     them one by one. *)
  let bytes bound =
    Array.append
      [| movi 128 1; (* 0: base byte address (word 32) *)
         movi 0 4; (* 1: i *)
         movi bound 3; (* 2: bound *)
         Word.A (Alu.Wr_special (Alu.Byte_select, i4 2)); (* 3 *)
         movi 0 8; (* 4 *)
         bin Alu.And (rr 4) (i4 3) 5; (* 5: loop: lane = i & 3 *)
         add (rr 1) (rr 5) 9; (* 6: byte address *)
         st Mem.W8 4 (disp 9 0); (* 7: byte store *)
         ld Mem.W32 (disp 1 0) 2; (* 8: reload the word *)
         Word.A (Alu.Ibyte (rr 4, Reg.r 8)); (* 9 *)
         Word.A (Alu.Xbyte (rr 9, rr 2, Reg.r 11)); (* 10 *)
         add (rr 13) (rr 11) 13; (* 11 *)
         ld Mem.W8 (disp 9 0) 14; (* 12: byte load ... *)
         add (rr 13) (rr 14) 13; (* 13: ... and its use *)
         Word.AM
           (Alu.Binop (Alu.Xor, rr 8, rr 13, Reg.r 7),
            Mem.Load (Mem.W8, disp 1 1, Reg.r 6)); (* 14 *)
         add (rr 4) (i4 1) 4; (* 15 *)
         cbr Cond.Lt (rr 4) (rr 3) 5; (* 16 *)
         Word.Nop; (* 17: delay slot *)
         movi 0 4; (* 18 *)
         movi 255 3; (* 19 *)
         bin Alu.Sll (rr 3) (i4 6) 3; (* 20: bound 16320 *)
         add (rr 4) (i4 1) 4; (* 21: loop 2 *)
         add (rr 5) (i4 3) 5; (* 22 *)
         bin Alu.Xor (rr 5) (rr 4) 6; (* 23 *)
         cbr Cond.Lt (rr 4) (rr 3) 21; (* 24 *)
         Word.Nop; (* 25 *)
         add (rr 13) (rr 7) 13 (* 26 *) |]
      (Array.of_list (exit_with 13))

  let run ~on_unhandled ~engine code =
    let cpu = Cpu.create ~config:Cpu.byte_addressed_config () in
    Cpu.load_program cpu (program code);
    let res = Hosted.run ~fuel:1_000_000 ~on_unhandled ~engine cpu in
    (cpu, snapshot cpu res)
end

let test_byte_hand_loops () =
  let compare name ~on_unhandled code =
    let _, r = Hand.run ~on_unhandled ~engine:Cpu.Ref code in
    let jcpu, j = Hand.run ~on_unhandled ~engine:Cpu.Jit code in
    explain_diff name 0 r j;
    check_coverage_total name jcpu;
    check (name ^ ": ran inside traces") true
      ((Cpu.coverage jcpu).Cpu.trace_words > 100);
    jcpu
  in
  List.iter
    (fun (name, code, faults) ->
      List.iter
        (fun (pname, on_unhandled) ->
          let name = name ^ "/" ^ pname in
          let jcpu = compare name ~on_unhandled code in
          check (name ^ ": misalignment fault taken") faults
            (List.exists
               (fun (c, _) -> c = Cause.Illegal)
               (Cpu.stats jcpu).Stats.exceptions))
        [ ("halt", `Abort); ("skip", `Ignore) ])
    [ ("misaligned", Hand.misaligned, true); ("bytes", Hand.bytes 200, false) ];
  for i = 0 to 30 do
    let bound = 100 + (5 * i) in
    ignore
      (compare (Printf.sprintf "bytes %d" bound) ~on_unhandled:`Abort
         (Hand.bytes bound))
  done

(* (c) The report's simulations run on the default engine; the report's
   golden file pins only its shape, so the values are checked here: every
   "sim:" job of the warm-up leaves the same artifact the reference
   interpreter builds. *)
let test_report_sims_match_ref () =
  let sims =
    List.filter
      (fun (label, _) -> String.length label > 4 && String.sub label 0 4 = "sim:")
      (Mips_analysis.Report.prepare_jobs ())
  in
  check "report has sim jobs" true (sims <> []);
  List.iter
    (fun (label, job) ->
      job ();
      match String.split_on_char ':' label with
      | [ _; cname; name ] ->
          let config =
            match cname with
            | "default" -> Mips_ir.Config.default
            | "byte" -> Mips_ir.Config.byte_machine
            | c -> Alcotest.failf "%s: unknown config %s" label c
          in
          let e = Mips_corpus.Corpus.find name in
          let d = Mips_artifact.entry_sim ~config e in
          let r = Mips_artifact.entry_sim ~config ~engine:Cpu.Ref e in
          let stats s = Json.to_string (Stats.to_json s.Mips_artifact.stats) in
          check_string (label ^ " stats") (stats r) (stats d);
          check (label ^ " result") true
            (r.Mips_artifact.result = d.Mips_artifact.result)
      | _ -> Alcotest.failf "unexpected job label %s" label)
    sims

(* --- sparse machine memory at its edges ---------------------------------- *)

(* Instruction memory is allocated as code is touched and data memory one
   chunk per first nonzero store, behind unchanged address-space bounds.
   Each case sits on an edge of that scheme — never-written words, chunk
   boundaries, the top of each address space — and runs on every engine
   and both addressing modes, against the reference. *)
module Edge = struct
  open Mips_isa

  let machines =
    [ ("word", Cpu.default_config); ("byte", Cpu.byte_addressed_config) ]

  let chunk = Cpu.data_chunk_words
  let top = Cpu.default_config.Cpu.dmem_words - 1  (* last data word *)
  let rr i = Operand.reg (Reg.r i)
  let movi c d = Word.A (Alu.Movi8 (c, Reg.r d))
  let limm c d = Word.M (Mem.Limm (c, Reg.r d))
  let add a b d = Word.A (Alu.Binop (Alu.Add, a, b, Reg.r d))
  let ld w a d = Word.M (Mem.Load (w, a, Reg.r d))
  let st w s a = Word.M (Mem.Store (w, Reg.r s, a))

  (* the native address of data word [w] (of its byte [lane]) *)
  let addr (cfg : Cpu.config) ?(lane = 0) w =
    Mem.Abs (if cfg.Cpu.byte_addressed then (4 * w) + lane else w)

  (* base register [b] plus the loop counter r1, counted in words *)
  let indexed (cfg : Cpu.config) b =
    if cfg.Cpu.byte_addressed then Mem.Scaled (Reg.r b, Reg.r 1, 2)
    else Mem.Idx (Reg.r b, Reg.r 1)

  let exit_with r =
    [| Word.A (Alu.Mov (rr r, Reg.scratch0)); Word.B (Branch.Trap Monitor.exit_) |]

  (* [pre], then [body] 60 times with r1 counting from 0 (hot enough for
     the jit to trace it), then exit with r8; placed at [at]. *)
  let hot_loop ?(at = 0) ?(pre = []) body =
    let entry = at + List.length pre + 2 in
    Array.concat
      [ Array.of_list pre;
        [| movi 0 1; movi 60 3 |];
        Array.of_list body;
        [| add (rr 1) (Operand.imm4 1) 1;
           Word.B (Branch.Cbr (Cond.Lt, rr 1, rr 3, entry));
           Word.Nop |];
        exit_with 8 ]

  let fault_name c d = Some (Printf.sprintf "%s/%d" (Cause.name c) d)

  (* Run [drive engine cpu] on a fresh machine per engine; every engine
     must leave the reference's final state.  Returns each engine's
     machine and snapshot, the reference first. *)
  let across ?plan name cfg drive =
    List.fold_left
      (fun acc engine ->
        let cpu = Cpu.create ~config:cfg () in
        Option.iter (fun p -> Cpu.set_fault_plan cpu (Plan.make p)) plan;
        let s = snapshot cpu (drive engine cpu) in
        (match acc with
        | (_, r) :: _ -> explain_diff (name ^ "/" ^ Cpu.engine_name engine) 0 r s
        | [] -> ());
        acc @ [ (cpu, s) ])
      [] [ Cpu.Ref; Cpu.Fast; Cpu.Jit ]

  (* the jit machine (last in [across]'s list) ran the loop in traces *)
  let check_traced name runs =
    let cpu, _ = List.nth runs 2 in
    check (name ^ ": jit ran traces") true ((Cpu.coverage cpu).Cpu.trace_words > 100)

  let run_code code engine cpu =
    Cpu.load_program cpu (Program.make code);
    Hosted.run ~fuel:1_000_000 ~engine cpu
end

(* Falling off the end of the loaded code: every never-written word below
   imem_words executes as a nop, then the fetch at imem_words faults. *)
let test_run_off_code () =
  List.iter
    (fun (m, cfg) ->
      let runs =
        Edge.across ("off-end/" ^ m) cfg
          (Edge.run_code [| Edge.movi 3 1; Edge.movi 4 2 |])
      in
      List.iter
        (fun (cpu, s) ->
          check (m ^ ": fetch fault at imem_words") true
            (s.fault = Edge.fault_name Cause.Illegal 0);
          check_int (m ^ ": words executed") cfg.Cpu.imem_words
            (Cpu.stats cpu).Stats.words;
          check_int (m ^ ": nops") (cfg.Cpu.imem_words - 2) (Cpu.stats cpu).Stats.nops)
        runs)
    Edge.machines

(* Code written above the code mark once the jit is armed, far past the
   loaded program, and then executed. *)
let test_code_written_above_mark () =
  let open Mips_isa in
  List.iter
    (fun (m, cfg) ->
      let high = 5000 in
      let drive engine cpu =
        let first =
          Edge.run_code (Edge.hot_loop [ Edge.add (Edge.rr 8) (Operand.imm4 1) 8 ]) engine cpu
        in
        check (m ^ ": first run exits 60") true (first.Hosted.exit_status = Some 60);
        Array.iteri
          (fun i w -> Cpu.write_code cpu (high + i) w)
          (Edge.hot_loop ~at:high [ Edge.add (Edge.rr 8) (Operand.imm4 3) 8 ]);
        Cpu.set_pc cpu high;
        Hosted.run ~fuel:1_000_000 ~engine cpu
      in
      List.iter
        (fun ((cpu : Cpu.t), s) ->
          check (m ^ ": second run exits 240") true (s.exit_status = Some 240);
          check (m ^ ": imem covers the high code") true
            (Array.length cpu.Cpu.imem > high))
        (Edge.across ("above-mark/" ^ m) cfg drive))
    Edge.machines

(* Loads of never-written words, up to the last data word, read zero and
   leave their chunks shared. *)
let test_load_unwritten () =
  let open Mips_isa in
  List.iter
    (fun (m, cfg) ->
      let byte = cfg.Cpu.byte_addressed in
      let body =
        [ Edge.ld Mem.W32 (Edge.addr cfg Edge.top) 5;
          Edge.ld Mem.W32 (Edge.addr cfg ((7 * Edge.chunk) + 1)) 6;
          Edge.st Mem.W32 1 (Edge.addr cfg 100);
          Edge.add (Edge.rr 8) (Edge.rr 5) 8;
          Edge.add (Edge.rr 8) (Edge.rr 6) 8 ]
        @
        if byte then
          [ Edge.ld Mem.W8 (Edge.addr cfg ~lane:3 Edge.top) 7;
            Word.Nop;
            Edge.add (Edge.rr 8) (Edge.rr 7) 8 ]
        else []
      in
      List.iter
        (fun (cpu, s) ->
          check (m ^ ": loads read zero") true (s.exit_status = Some 0);
          check_int (m ^ ": the store landed") 59 (Cpu.read_data cpu 100);
          check_int (m ^ ": top word") 0 (Cpu.read_data cpu Edge.top);
          check (m ^ ": loaded chunks stay shared") false
            (Cpu.data_chunk_materialized cpu (Edge.top / Edge.chunk)
            || Cpu.data_chunk_materialized cpu 7))
        (let runs = Edge.across ("load-unwritten/" ^ m) cfg (Edge.run_code (Edge.hot_loop body)) in
         Edge.check_traced m runs;
         runs))
    Edge.machines

(* Word and byte stores at the first and last word of a chunk and at the
   top of data memory.  The first iteration stores zeros, which leave a
   chunk shared; the later ones materialize it. *)
let test_store_chunk_edges () =
  let open Mips_isa in
  List.iter
    (fun (m, cfg) ->
      let byte = cfg.Cpu.byte_addressed in
      let first = 5 * Edge.chunk and last = (6 * Edge.chunk) - 1 in
      let body =
        [ Edge.st Mem.W32 1 (Edge.addr cfg first);
          Edge.st Mem.W32 1 (Edge.addr cfg last);
          Edge.st Mem.W32 1 (Edge.addr cfg Edge.top);
          Edge.ld Mem.W32 (Edge.addr cfg last) 5;
          Word.Nop;
          Edge.add (Edge.rr 8) (Edge.rr 5) 8 ]
        @
        if byte then
          [ Edge.st Mem.W8 1 (Edge.addr cfg ~lane:3 first);
            Edge.st Mem.W8 1 (Edge.addr cfg ~lane:0 (last + 1));
            Edge.st Mem.W8 1 (Edge.addr cfg ~lane:3 Edge.top) ]
        else []
      in
      List.iter
        (fun (cpu, s) ->
          check (m ^ ": reloads see the stores") true
            (s.exit_status = Some (59 * 60 / 2));
          check_int (m ^ ": last word of the chunk") 59 (Cpu.read_data cpu last);
          check_int (m ^ ": word before the chunk") 0 (Cpu.read_data cpu (first - 1));
          if byte then begin
            check_int (m ^ ": first word of the chunk, lane 3") 59
              (Word32.get_byte (Cpu.read_data cpu first) 3);
            check_int (m ^ ": first word of the next chunk, lane 0") 59
              (Word32.get_byte (Cpu.read_data cpu (last + 1)) 0)
          end
          else begin
            check_int (m ^ ": first word of the chunk") 59 (Cpu.read_data cpu first);
            check_int (m ^ ": first word of the next chunk") 0
              (Cpu.read_data cpu (last + 1))
          end;
          check (m ^ ": stored chunks materialized") true
            (Cpu.data_chunk_materialized cpu 5
            && Cpu.data_chunk_materialized cpu (Edge.top / Edge.chunk));
          check (m ^ ": untouched chunk shared") false
            (Cpu.data_chunk_materialized cpu 4))
        (let runs = Edge.across ("store-edges/" ^ m) cfg (Edge.run_code (Edge.hot_loop body)) in
         Edge.check_traced m runs;
         runs))
    Edge.machines

(* A data-flip fault lands in memory no store has touched: it must flip
   that machine's word and nobody else's. *)
let test_flip_untouched () =
  let plan =
    { Plan.quiet with Plan.seed = 11; flip_data_rate = 1.0; max_injections = 2 }
  in
  List.iter
    (fun (m, cfg) ->
      let code = Array.append [| Edge.movi 3 1; Edge.movi 4 2 |] (Edge.exit_with 1) in
      List.iter
        (fun (cpu, _) ->
          let flipped = ref [] in
          for w = (Cpu.config cpu).Cpu.dmem_words - 1 downto 0 do
            let v = Cpu.read_data cpu w in
            if v <> 0 then flipped := (w, v) :: !flipped
          done;
          check_int (m ^ ": two words flipped") 2 (List.length !flipped);
          List.iter
            (fun (w, v) ->
              check (m ^ ": one bit set") true (v land (v - 1) = 0);
              check (m ^ ": its chunk materialized") true
                (Cpu.data_chunk_materialized cpu (w / Edge.chunk));
              check_int (m ^ ": a fresh machine still reads zero") 0
                (Cpu.read_data (Cpu.create ~config:cfg ()) w))
            !flipped)
        (Edge.across ~plan ("flip/" ^ m) cfg (Edge.run_code code)))
    Edge.machines

(* Out-of-range fetches, loads and stores fault with the same cause and
   detail on every engine, including inside a hot loop that walks off the
   top of data memory. *)
let test_out_of_range_faults () =
  let open Mips_isa in
  let top_words = Cpu.default_config.Cpu.dmem_words in
  List.iter
    (fun (m, cfg) ->
      let native w = if cfg.Cpu.byte_addressed then 4 * w else w in
      let cases =
        [ ( "fetch at imem_words",
            Array.append
              [| Edge.limm cfg.Cpu.imem_words 4;
                 Word.B (Branch.Jind (Reg.r 4));
                 Word.Nop;
                 Word.Nop |]
              (Edge.exit_with 1),
            Cause.Illegal, 0 );
          ( "fetch below zero",
            [| Edge.limm (-1) 4; Word.B (Branch.Jind (Reg.r 4)); Word.Nop; Word.Nop |],
            Cause.Illegal, 0 );
          ( "load walking off the top",
            Edge.hot_loop ~pre:[ Edge.limm (native (top_words - 40)) 4 ]
              [ Edge.ld Mem.W32 (Edge.indexed cfg 4) 5;
                Edge.add (Edge.rr 8) (Edge.rr 5) 8 ],
            Cause.Illegal, 1 );
          ( "store walking off the top",
            Edge.hot_loop ~pre:[ Edge.limm (native (top_words - 40)) 4 ]
              [ Edge.st Mem.W32 1 (Edge.indexed cfg 4);
                Edge.add (Edge.rr 8) (Edge.rr 1) 8 ],
            Cause.Illegal, 1 );
          ( "load below zero",
            Array.append [| Edge.ld Mem.W32 (Edge.addr cfg (-1)) 5 |] (Edge.exit_with 1),
            Cause.Illegal, 1 );
          ( "store at dmem_words",
            Array.append
              [| Edge.st Mem.W32 1 (Edge.addr cfg top_words) |]
              (Edge.exit_with 1),
            Cause.Illegal, 1 ) ]
      in
      List.iter
        (fun (name, code, cause, detail) ->
          let name = m ^ ": " ^ name in
          List.iter
            (fun (_, s) ->
              check (name ^ " faults as " ^ Cause.name cause) true
                (s.fault = Edge.fault_name cause detail))
            (Edge.across name cfg (Edge.run_code code)))
        cases)
    Edge.machines

(* A machine costs memory in proportion to what it touches: creating one,
   under either addressing mode, allocates about 1.3K words, not the 448K
   words of fully backed 64K-word instruction and 256K-word data memories.
   [Gc.minor_words] counts young allocation exactly and [Gc.counters] the
   blocks allocated straight into the major heap; [Gc.quick_stat]'s
   counters only catch up at a collection, so a 1K-word array can read as
   nothing there. *)
let test_create_allocation () =
  let allocated f =
    let minor0 = Gc.minor_words () and _, promoted0, major0 = Gc.counters () in
    ignore (Sys.opaque_identity (f ()));
    let minor1 = Gc.minor_words () and _, promoted1, major1 = Gc.counters () in
    int_of_float (minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0))
  in
  (* the meter itself must see a major-heap block *)
  check "meter sees a 1000-word array" true (allocated (fun () -> Array.make 1000 0) >= 1000);
  List.iter
    (fun (m, config) ->
      let words = allocated (fun () -> Cpu.create ~config ()) in
      if words >= 16 * 1024 then
        Alcotest.failf "%s: Cpu.create allocated %d words (limit 16K)" m words)
    Edge.machines

let suite =
  [ ( "engine:differential",
      [ tc_slow "56 seeds x 4 variants, all engines" test_differential;
        tc "interleaved step/step_fast" test_interleaved_steps;
        tc "write_code invalidates compiled slot" test_write_code_invalidation;
        tc "kernel scheduling identical" test_kernel_differential;
        tc "jit: SMC patch of hot compiled block" test_jit_smc_hot_block;
        tc "jit: checkpoint/resume bit-identical" test_jit_checkpoint_resume;
        tc "jit: trace tables follow the code mark" test_jit_code_mark;
        tc "jit: corpus x word/byte equals reference" test_corpus_jit_vs_ref;
        tc "jit: hand-built byte loops equal reference" test_byte_hand_loops;
        tc "jit: report sim jobs equal reference" test_report_sims_match_ref ] );
    ( "engine:memory",
      [ tc "running off the end of loaded code" test_run_off_code;
        tc "code written above the mark after arming" test_code_written_above_mark;
        tc "loads of never-written words" test_load_unwritten;
        tc "stores at chunk edges" test_store_chunk_edges;
        tc "data flip into an untouched chunk" test_flip_untouched;
        tc "out-of-range fetch, load and store faults" test_out_of_range_faults;
        tc "Cpu.create allocates under 16K words" test_create_allocation ] ) ]
