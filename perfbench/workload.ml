(* What every workload provides to the runner in main.ml. *)

type ctx = {
  seed : int;
  seconds : float;  (* how long the timed loop runs *)
  nproc : int;  (* worker domains / client threads *)
}

(* The outcome of the timed loop.  Times are at reference speed (see
   Stat.probe); the wall-clock figures are kept beside them. *)
type run = {
  samples : float list;  (* one time per completed operation, seconds *)
  busy : float;  (* time the loop's operations took, seconds *)
  rates : float list;
      (* completed operations per second of each unit of the loop (a pair,
         a round, a pass, a daemon phase); their median is ops_per_s *)
  wall : float list;  (* [samples] as measured *)
  elapsed : float;  (* wall time of the whole loop, probes included *)
  probes : float list;  (* every probe time in the loop *)
  attempted : int;
  failures : string list;  (* one message per failed operation *)
  detail : (string * Mips_obs.Json.t) list;  (* workload-specific readings *)
}

(* Exact readings: the same for the same seed on every run, traced or not. *)
type exact = { guest_cycles : int; code_words : int }

module type S = sig
  val name : string

  val traced_ops : int
  (** Operations in the traced run, each run once traced and once not. *)

  type env

  val setup : ctx -> env
  (** Everything before the timed loop.  The runner calls it several times
      and keeps the last environment. *)

  val teardown : env -> unit

  val measure : ctx -> env -> run
  (** The timed loop, tracing off. *)

  val op : ctx -> env -> Mips_obs.Span.tracer -> int -> string option
  (** Operation [i] alone, recording spans on the tracer around each call
      into a layer; [None] when its outputs check out, else why not. *)

  val exact : ctx -> env -> exact
  (** Computed after the loop, outside any timing. *)
end

let failure_frac (r : run) =
  if r.attempted = 0 then 0.
  else float_of_int (List.length r.failures) /. float_of_int r.attempted

(* Run [f i] for i = 0, 1, ... in whole units of [unit] operations (a
   round, a pass, a pair): [seconds / unit_s] units, at least one, where
   [unit_s] is about how long a unit takes on the 2-vCPU host the benchmark
   was tuned on.  The count follows from [seconds], not from the clock, so
   the sample count, and with it the tail percentile, does not change with
   the host's speed of the moment.  A probe runs before the first operation
   and after each one, and scales the operation between two probes.  Every
   operation starts from a collected heap, as a fresh `mipsc` process
   would, so no operation pays for its predecessor's garbage.  Each unit's
   rate is its completed operations over its time, so one slow unit moves
   the median rate no more than one slow operation moves the median time. *)
let timed_loop ~unit ~unit_s (ctx : ctx) f =
  let units = max 1 (Float.to_int (Float.round (ctx.seconds /. unit_s))) in
  let t0 = Stat.now () in
  let before = ref (Stat.probe ()) in
  let probes = ref [ !before ] and samples = ref [] and wall = ref [] in
  let failures = ref [] and n = units * unit in
  let rates = ref [] and unit_ok = ref 0 and unit_t = ref 0. in
  for i = 0 to n - 1 do
    Gc.full_major ();
    let r, dt = Stat.time (fun () -> f i) in
    let after = Stat.probe () in
    let scaled = Stat.at_ref dt ~before:!before ~after in
    samples := scaled :: !samples;
    wall := dt :: !wall;
    probes := after :: !probes;
    before := after;
    unit_t := !unit_t +. scaled;
    (match r with
    | None -> incr unit_ok
    | Some m -> failures := m :: !failures);
    if (i + 1) mod unit = 0 then (
      rates := (float_of_int !unit_ok /. !unit_t) :: !rates;
      unit_ok := 0;
      unit_t := 0.)
  done;
  {
    samples = List.rev !samples;
    busy = List.fold_left ( +. ) 0. !samples;
    rates = List.rev !rates;
    wall = List.rev !wall;
    elapsed = Stat.now () -. t0;
    probes = !probes;
    attempted = n;
    failures = List.rev !failures;
    detail = [];
  }
