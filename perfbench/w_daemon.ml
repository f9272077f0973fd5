(* daemon_rpc: a closed loop of nproc client threads calling an in-process
   mipsd server through Client.call, the tagged, retrying path `mipsc run
   --remote` uses.  Requests are plain Runs of short corpus programs; one
   in eight names a session, so it is journalled and checkpointed. *)

module Server = Mips_daemon.Server
module Client = Mips_daemon.Client
module Protocol = Mips_daemon.Protocol
module Span = Mips_obs.Span
module Json = Mips_obs.Json
open Workload

let name = "daemon_rpc"
let traced_ops = 100
let session_every = 8

(* The corpus programs the requests leave out, the three that run for more
   than a million guest words: what remains is short enough that the
   daemon's own costs are visible beside execution. *)
let long_running = [ "puzzle0"; "puzzle1"; "queens" ]

type env = {
  server : Server.t;
  socket : string;
  state_dir : string;
  progs : Inputs.prog array;  (* the request set *)
  expected : (string, Inputs.expect) Hashtbl.t;
  cycles : (string, int) Hashtbl.t;  (* per program, from the warm-up *)
  metrics : Mips_obs.Metrics.t;  (* client-side counters, merged per thread *)
}

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path

let request ?session ~tenant (p : Inputs.prog) =
  Protocol.Run
    {
      tenant;
      session;
      source = p.Inputs.entry.Mips_corpus.Corpus.source;
      cg =
        { Protocol.default_codegen with
          Protocol.byte = p.Inputs.target = "byte" };
      input = p.Inputs.entry.Mips_corpus.Corpus.input;
      fuel = Inputs.fuel;
      engine = "ref";
    }

(* Check a reply against the recorded output and the reference run. *)
let check env p = function
  | Ok (Protocol.Ran r) -> (
      match Hashtbl.find_opt env.expected (Inputs.key p) with
      | Some e
        when e.Inputs.exit_status = r.Protocol.exit_status
             && e.Inputs.output_md5 = Digest.to_hex (Digest.string r.Protocol.output)
             && (Inputs.reference_counts p).Inputs.cycles = r.Protocol.cycles
             && r.Protocol.fault = None ->
          None
      | _ -> Some (Inputs.key p ^ ": daemon reply differs from the reference run"))
  | Ok (Protocol.Err (reject, detail)) ->
      Some (Printf.sprintf "%s: %s (%s)" (Inputs.key p) (Protocol.reject_to_string reject) detail)
  | Ok _ -> Some (Inputs.key p ^ ": unexpected response")
  | Error e -> Some (Inputs.key p ^ ": " ^ Client.call_error_to_string e)

let setups = Atomic.make 0

let setup (ctx : ctx) =
  Mips_jit.install ();
  Inputs.ensure_work_dir ();
  let tag = Printf.sprintf "%d-%d" (Unix.getpid ()) (Atomic.fetch_and_add setups 1) in
  let socket = Filename.concat Inputs.work_dir ("d" ^ tag ^ ".sock") in
  let state_dir = Filename.concat Inputs.work_dir ("state-" ^ tag) in
  remove_tree state_dir;
  let expected = Inputs.load_expected () in
  let progs =
    List.filter
      (fun p -> not (List.mem p.Inputs.entry.Mips_corpus.Corpus.name long_running))
      (Inputs.compile_all ())
  in
  let server =
    Server.start
      { (Server.default_config ~socket) with
        Server.jobs = ctx.nproc; state_dir = Some state_dir; drain_s = 1. }
  in
  (match Client.wait_ready ~timeout_s:30. socket with
  | Ok () -> ()
  | Error (`Timed_out s) -> failwith (Printf.sprintf "daemon not ready after %.1f s" s));
  let env =
    { server; socket; state_dir; progs = Array.of_list progs; expected;
      cycles = Hashtbl.create 64; metrics = Mips_obs.Metrics.create () }
  in
  (* one request per program warms the daemon's compile cache *)
  Array.iter
    (fun p ->
      let reply = Client.call socket (request ~tenant:"warm" p) in
      match (check env p reply, reply) with
      | Some m, _ -> failwith m
      | None, Ok (Protocol.Ran r) ->
          Hashtbl.replace env.cycles (Inputs.key p) r.Protocol.cycles
      | None, _ -> ())
    env.progs;
  env

let teardown env =
  Server.stop ~drain:false env.server;
  remove_tree env.state_dir;
  if Sys.file_exists env.socket then Sys.remove env.socket

let sessions_named = Atomic.make 0

(* Request [j] of client [c].  Each client runs the request set in whole
   rounds, each round in a seeded order, so every program is requested
   equally often whatever the seed; every [session_every]-th request is in
   a session of its own. *)
let pick (ctx : ctx) env c j =
  let n = Array.length env.progs in
  let order = Stat.shuffle (Stat.rng ((ctx.seed * 1_000_003) + (c * 65_537) + (j / n))) env.progs in
  let p = order.(j mod n) in
  let session =
    if (j + c) mod session_every = 0 then
      (* a fresh name every time: a known session would be answered from
         its journal instead of executed *)
      Some (Printf.sprintf "s%d-%d" ctx.seed (Atomic.fetch_and_add sessions_named 1))
    else None
  in
  (p, session)

let call env ~metrics ~tenant (p, session) =
  check env p (Client.call ~metrics env.socket (request ?session ~tenant p))

let op ctx env tracer i =
  let p = pick ctx env 0 i in
  Span.with_ (Span.lane tracer 0) "client.call" (fun () ->
      call env ~metrics:env.metrics ~tenant:"t0" p)

(* The closed loop runs in phases of [phase_s]: all clients stop at the end
   of a phase, a probe runs with the daemon idle, and the phase's requests
   are scaled by the probes on either side of it. *)
let phase_s = 0.25

let measure ctx env =
  let lock = Mutex.create () in
  let n = ref 0 and next = Array.make ctx.nproc 0 in
  let samples = ref [] and wall = ref [] and failures = ref [] in
  let plain = ref [] and sessions = ref [] in
  let busy = ref 0. and rates = ref [] in
  let t0 = Stat.now () in
  let before = ref (Stat.probe ()) in
  let probes = ref [ !before ] in
  let client phase_end phase c () =
    let metrics = Mips_obs.Metrics.create () in
    let tenant = Printf.sprintf "t%d" c in
    while Stat.now () < phase_end do
      let ((_, session) as req) = pick ctx env c next.(c) in
      next.(c) <- next.(c) + 1;
      let r, dt = Stat.time (fun () -> call env ~metrics ~tenant req) in
      Mutex.protect lock (fun () ->
          incr n;
          phase := (dt, session = None, r) :: !phase)
    done;
    Mutex.protect lock (fun () -> Mips_obs.Metrics.merge ~into:env.metrics metrics)
  in
  while !n = 0 || Stat.now () -. t0 < ctx.seconds do
    Gc.full_major ();
    let phase = ref [] in
    let start = Stat.now () in
    let threads =
      List.init ctx.nproc (fun c -> Thread.create (client (start +. phase_s) phase c) ())
    in
    List.iter Thread.join threads;
    let span = Stat.now () -. start in
    let after = Stat.probe () in
    let scale dt = Stat.at_ref dt ~before:!before ~after in
    busy := !busy +. scale span;
    let ok = List.length (List.filter (fun (_, _, r) -> r = None) !phase) in
    rates := (float_of_int ok /. scale span) :: !rates;
    List.iter
      (fun (dt, is_plain, r) ->
        samples := scale dt :: !samples;
        wall := dt :: !wall;
        let kind = if is_plain then plain else sessions in
        kind := scale dt :: !kind;
        Option.iter (fun m -> failures := m :: !failures) r)
      !phase;
    probes := after :: !probes;
    before := after
  done;
  {
    samples = !samples;
    busy = !busy;
    rates = !rates;
    wall = !wall;
    elapsed = Stat.now () -. t0;
    probes = !probes;
    attempted = !n;
    failures = !failures;
    detail =
      [ ("clients", Json.Int ctx.nproc);
        ("plain_p50_ms", Json.Float (1000. *. Stat.median !plain));
        ("session_p50_ms", Json.Float (1000. *. Stat.median !sessions));
        ("session_requests", Json.Int (List.length !sessions));
        ("client_retries", Json.Int (Mips_obs.Metrics.count env.metrics "client.retries"));
        ("client_call_failed", Json.Int (Mips_obs.Metrics.count env.metrics "client.call_failed")) ];
  }

let exact _ env =
  {
    guest_cycles = Hashtbl.fold (fun _ c acc -> acc + c) env.cycles 0;
    code_words = Inputs.code_words (Array.to_list env.progs);
  }
