(* fault_soak: generated programs under the demand-paged kernel with faults
   injected, then the raw-versus-reorganized differential — `mipsc soak
   --programs 64 --differential 32` with its other settings at their
   defaults.  One operation is one soak seed; the functions run on their
   default engines and the differential fans out over nproc domains.

   The soak seeds come from a fixed pool, in an order the workload seed
   sets: how much a seed's programs execute before the injected faults kill
   them varies by half between seeds, so a pool drawn afresh per workload
   seed would move the run's work, and its exact counts, with the seed. *)

module Soak = Mips_soak.Soak
module Span = Mips_obs.Span
open Workload

let name = "fault_soak"
let traced_ops = 3
let programs = 64
let differential = 32
let segments = 48  (* `mipsc soak`'s default program size *)

(* One pass over 36 seeds rather than several over fewer: with each seed
   run several times the samples bunch by seed, and the median jumps from
   bunch to bunch (three passes over 12 seeds read op_p50_ms with a 20%
   spread over ten runs). *)
let pool = Array.init 36 (fun k -> 1000 * (k + 1))

type env = {
  order : int array;  (* the pool, shuffled by the workload seed *)
  summaries : (int, Soak.summary) Hashtbl.t;  (* soak seed -> kernel soak *)
  mutable injected : int;  (* faults injected, kernel soaks and differentials *)
}

let op_seed env i = env.order.(i mod Array.length env.order)

(* `mipsc soak`'s default fault rates *)
let plan seed =
  {
    Mips_fault.Plan.seed;
    flip_reg_rate = 0.002;
    flip_data_rate = 0.002;
    irq_rate = 0.002;
    page_drop_rate = 0.002;
    flaky_rate = 0.005;
    max_injections = 0;
  }

let kernel_soak seed = Soak.run_soak ~programs ~segments ~plan:(plan seed) ~seed ()

let setup ctx =
  Mips_jit.install ();
  (* warm-up on a seed outside the pool *)
  let seed = 500 in
  ignore (kernel_soak seed);
  ignore (Soak.differential_sweep ~jobs:ctx.nproc ~segments ~seed ~count:differential ());
  { order = Stat.shuffle (Stat.rng ctx.seed) pool; summaries = Hashtbl.create 16; injected = 0 }

let teardown _ = ()

let check (s : Soak.summary) diffs =
  match List.find_opt (fun (d : Soak.diff) -> not d.Soak.ok) diffs with
  | Some d ->
      Some
        (Printf.sprintf "soak seed %d: differential seed %d diverged (%s)" s.Soak.seed
           d.Soak.seed
           (String.concat "; " (List.map (fun (v, m) -> v ^ ": " ^ m) d.Soak.mismatches)))
  | None ->
      if s.Soak.exited + s.Soak.killed + s.Soak.live <> programs then
        Some
          (Printf.sprintf "soak seed %d: exited %d + killed %d + live %d <> %d programs"
             s.Soak.seed s.Soak.exited s.Soak.killed s.Soak.live programs)
      else None

let op (ctx : ctx) env tracer i =
  let seed = op_seed env i in
  let sp = Span.lane tracer 0 in
  let s = Span.with_ sp "soak.kernel" (fun () -> kernel_soak seed) in
  let diffs =
    Span.with_ sp "soak.differential" (fun () ->
        Soak.differential_sweep ~jobs:ctx.nproc ~segments ~seed ~count:differential ())
  in
  Hashtbl.replace env.summaries seed s;
  env.injected <-
    env.injected
    + List.fold_left (fun a (_, n) -> a + n) 0 s.Soak.injected
    + List.fold_left (fun a (d : Soak.diff) -> a + d.Soak.injected) 0 diffs;
  check s diffs

let measure ctx env =
  let r = timed_loop ~unit:(Array.length pool) ~unit_s:18.0 ctx (op ctx env Span.no_tracer) in
  let sum f = Hashtbl.fold (fun _ s acc -> acc + f s) env.summaries 0 in
  {
    r with
    detail =
      [ ("kernel_switches", Mips_obs.Json.Int (sum (fun s -> s.Soak.switches)));
        ("kernel_page_faults", Mips_obs.Json.Int (sum (fun s -> s.Soak.page_faults)));
        ("injected", Mips_obs.Json.Int env.injected) ];
  }

(* Cycles of the pool's kernel soaks and the static words of the
   reorganized programs they spawn — regenerated here, outside timing,
   exactly as run_soak generates them. *)
let exact _ env =
  Array.fold_left
    (fun acc seed ->
      let s =
        match Hashtbl.find_opt env.summaries seed with
        | Some s -> s
        | None -> kernel_soak seed
      in
      let words = ref 0 in
      for j = 0 to programs - 1 do
        let asm = Mips_soak.Progen.generate ~segments ~seed:((seed * 0x1000) + j) () in
        words := !words + Mips_machine.Program.static_count (Mips_reorg.Pipeline.compile asm)
      done;
      { guest_cycles = acc.guest_cycles + s.Soak.total_cycles;
        code_words = acc.code_words + !words })
    { guest_cycles = 0; code_words = 0 }
    pool
