(* corpus_sim: every corpus program, compiled once during set-up under word
   and byte addressing; one operation runs one program on a fresh machine
   with the jit engine, as `mipsc run --engine jit` does, so jit warm-up is
   paid on every run.  Programs run in whole rounds, each round in a
   seed-shuffled order. *)

module Cpu = Mips_machine.Cpu
module Span = Mips_obs.Span
open Workload

let name = "corpus_sim"
let round_size = 2 * List.length Mips_corpus.Corpus.all

let traced_ops = round_size

type env = {
  progs : Inputs.prog array;
  expected : (string, Inputs.expect) Hashtbl.t;
  orders : (int, Inputs.prog array) Hashtbl.t;  (* round -> run order *)
  cycles : (string, int) Hashtbl.t;  (* observed, per program *)
  mutable words : int;  (* guest words simulated by the timed loop *)
}

let setup _ =
  Mips_jit.install ();
  {
    progs = Array.of_list (Inputs.compile_all ());
    expected = Inputs.load_expected ();
    orders = Hashtbl.create 8;
    cycles = Hashtbl.create 64;
    words = 0;
  }

let teardown _ = ()

let program (ctx : ctx) env i =
  let round = i / round_size in
  let order =
    match Hashtbl.find_opt env.orders round with
    | Some o -> o
    | None ->
        let o = Stat.shuffle (Stat.rng ((ctx.seed * 7919) + round)) env.progs in
        Hashtbl.replace env.orders round o;
        o
  in
  order.(i mod round_size)

let op ctx env tracer i =
  let p = program ctx env i in
  let sp = Span.lane tracer 0 in
  let cpu =
    Span.with_ sp "machine.create" (fun () ->
        Cpu.create ~config:(Mips_codegen.Compile.machine_config p.Inputs.config) ())
  in
  let r =
    Span.with_ sp "engine.jit.run" (fun () ->
        Mips_machine.Hosted.run_program_on ~fuel:Inputs.fuel
          ~input:p.Inputs.entry.Mips_corpus.Corpus.input ~engine:Cpu.Jit cpu
          p.Inputs.program)
  in
  let stats = Cpu.stats cpu in
  env.words <- env.words + stats.Mips_machine.Stats.words;
  Hashtbl.replace env.cycles (Inputs.key p) stats.Mips_machine.Stats.cycles;
  Inputs.check env.expected p (r, stats)

let measure ctx env =
  env.words <- 0;
  let r = timed_loop ~unit:round_size ~unit_s:7.5 ctx (op ctx env Span.no_tracer) in
  let rounds =
    List.init (r.attempted / round_size) (fun k ->
        Mips_obs.Json.Float
          (List.fold_left ( +. ) 0. (List.filteri (fun i _ -> i / round_size = k) r.wall)))
  in
  {
    r with
    detail =
      [ ("guest_mips", Mips_obs.Json.Float (float_of_int env.words /. r.busy /. 1e6));
        ("guest_words", Mips_obs.Json.Int env.words);
        ("round_wall_s", Mips_obs.Json.List rounds) ];
  }

let exact _ env =
  {
    guest_cycles = Hashtbl.fold (fun _ c acc -> acc + c) env.cycles 0;
    code_words = Inputs.code_words (Array.to_list env.progs);
  }
