(* The repository benchmark.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
     main.exe --selfcheck [--seed N]
     main.exe --record

   With --trace 0 the workload runs with tracing off and the last line of
   standard output is {"correct", "attempted", "failed", "metrics"} with every
   end-to-end metric; with --trace 1 a separate traced run gives every
   per-layer metric instead.  The line before it carries the run context and
   everything behind the figures.  Any failed output check makes the exit
   code non-zero.  See README.md. *)

module Json = Mips_obs.Json
module Span = Mips_obs.Span

let workloads : (module Workload.S) list =
  [ (module W_report); (module W_corpus); (module W_soak); (module W_daemon) ]

let find name =
  List.find_opt (fun (module W : Workload.S) -> W.name = name) workloads

let setup_reps = 9

(* --- BENCHMARK.json: the metric names and units ---------------------------------- *)

let spec =
  lazy
    (let ic = open_in_bin "BENCHMARK.json" in
     let s = really_input_string ic (in_channel_length ic) in
     close_in ic;
     Json.of_string_exn s)

(* (name, unit) of every metric listed under [key]. *)
let catalogue key =
  List.map
    (fun m ->
      ( Json.to_string_exn (Json.member_exn "name" m),
        Json.to_string_exn (Json.member_exn "unit" m) ))
    (Json.to_list_exn (Json.member_exn key (Lazy.force spec)))

let value v unit = Json.Obj [ ("value", v); ("unit", Json.Str unit) ]

(* Every metric listed under [key], in BENCHMARK.json's order, read from
   [readings]; a listed metric the run did not measure is an error. *)
let metrics key readings =
  List.map
    (fun (name, unit) ->
      match List.assoc_opt name readings with
      | Some v -> (name, value v unit)
      | None -> failwith ("metric not measured: " ^ name))
    (catalogue key)

(* --- one run ------------------------------------------------------------------------ *)

let context (ctx : Workload.ctx) name trace =
  Json.Obj
    [ ("workload", Json.Str name);
      ("seed", Json.Int ctx.Workload.seed);
      ("seconds", Json.Float ctx.Workload.seconds);
      ("trace", Json.Bool trace);
      ("nproc", Json.Int ctx.Workload.nproc);
      ("recommended_domain_count", Json.Int (Domain.recommended_domain_count ()));
      ("ocaml_version", Json.Str Sys.ocaml_version);
      ("jobs", Json.Int ctx.Workload.nproc);
      ("clients", Json.Int (if name = W_daemon.name then ctx.Workload.nproc else 0)) ]

type outcome = {
  detail : Json.t;  (* the line before the result *)
  result : Json.t;  (* the last line *)
  exact : Workload.exact;
  correct : bool;
}

let result ~correct ~attempted ~failed metrics =
  Json.Obj
    [ ("correct", Json.Bool correct);
      ("attempted", Json.Int attempted);
      ("failed", Json.Int failed);
      ("metrics", Json.Obj metrics) ]

let untraced (module W : Workload.S) (ctx : Workload.ctx) =
  let setups = ref [] and setup_wall = ref [] and env = ref None in
  for _ = 1 to setup_reps do
    Option.iter W.teardown !env;
    let before = Stat.probe () in
    let e, dt = Stat.time (fun () -> W.setup ctx) in
    let after = Stat.probe () in
    setups := Stat.at_ref dt ~before ~after :: !setups;
    setup_wall := dt :: !setup_wall;
    env := Some e
  done;
  let env = Option.get !env in
  let r = W.measure ctx env in
  let exact = W.exact ctx env in
  W.teardown env;
  let rss = Stat.peak_rss_mb () in
  let n = List.length r.Workload.samples in
  let tail = Stat.tail r.Workload.samples in
  let failed = List.length r.Workload.failures in
  let completed = float_of_int (r.Workload.attempted - failed) in
  let values =
    [ ("setup_s", Json.Float (Stat.median !setups), List.length !setups);
      ("op_p50_ms", Json.Float (1000. *. Stat.median r.Workload.samples), n);
      ("op_tail_ms", Json.Float (1000. *. tail.Stat.value), n);
      ("ops_per_s", Json.Float (Stat.median r.Workload.rates), List.length r.Workload.rates);
      ("guest_cycles", Json.Int exact.Workload.guest_cycles, 1);
      ("code_words", Json.Int exact.Workload.code_words, 1) ]
  in
  let correct = failed = 0 && r.Workload.attempted > 0 in
  let quartiles xs =
    let a = Stat.sorted xs in
    let q k = Json.Float (1000. *. a.(k * (Array.length a - 1) / 4)) in
    Json.Obj [ ("min", q 0); ("q1", q 1); ("median", q 2); ("q3", q 3); ("max", q 4) ]
  in
  let detail =
    Json.Obj
      [ ("context", context ctx W.name false);
        ("samples", Json.Obj (List.map (fun (k, _, c) -> (k, Json.Int c)) values));
        ( "op_tail",
          Json.Obj
            [ ("percentile", Json.Float tail.Stat.percentile);
              ("samples_beyond", Json.Int tail.Stat.samples_beyond) ] );
        ("op_ms", quartiles r.Workload.samples);
        ( "wall",
          Json.Obj
            [ ("op_ms", quartiles r.Workload.wall);
              ("ops_per_s", Json.Float (completed /. r.Workload.elapsed));
              ("setup_s", Json.Float (Stat.median !setup_wall));
              ("loop_s", Json.Float r.Workload.elapsed) ] );
        ( "probe",
          Json.Obj
            [ ("reference_ms", Json.Float (1000. *. Stat.probe_ref_s));
              ("count", Json.Int (List.length r.Workload.probes));
              ("ms", quartiles r.Workload.probes) ] );
        (* not among the metrics: between runs of the same code the peak
           jumps by a quarter to a third, with the timing of major
           collections across domains *)
        ("peak_rss_mb", Json.Float rss);
        ("failed_frac", Json.Float (Workload.failure_frac r));
        ("failures", Json.List (List.filteri (fun i _ -> i < 5) (List.map (fun m -> Json.Str m) r.Workload.failures)));
        ("workload", Json.Obj r.Workload.detail) ]
  in
  {
    detail;
    result =
      result ~correct ~attempted:r.Workload.attempted ~failed
        (metrics "end_to_end" (List.map (fun (k, v, _) -> (k, v)) values));
    exact;
    correct;
  }

let spans_file name seed =
  Inputs.ensure_work_dir ();
  Filename.concat Inputs.work_dir (Printf.sprintf "spans-%s-%d.json" name seed)

let traced (module W : Workload.S) (ctx : Workload.ctx) =
  let env = W.setup ctx in
  let tracer = Span.tracer ~clock:Stat.now ~lanes:ctx.Workload.nproc () in
  let root = Span.lane tracer 0 in
  let t_plain = ref 0. and t_traced = ref 0. and failures = ref [] in
  let once total f =
    let r, dt = Stat.time f in
    total := !total +. dt;
    Option.iter (fun m -> failures := m :: !failures) r
  in
  for i = 0 to W.traced_ops - 1 do
    let plain () = once t_plain (fun () -> W.op ctx env Span.no_tracer i) in
    let traced () = once t_traced (fun () -> Span.with_ root "op" (fun () -> W.op ctx env tracer i)) in
    if i mod 2 = 0 then (plain (); traced ()) else (traced (); plain ())
  done;
  let exact = W.exact ctx env in
  W.teardown env;
  (* the residual: time inside an operation but outside every layer span *)
  let op_self, op_dur =
    List.fold_left
      (fun (self, dur) (n : Spans.node) ->
        if n.Spans.span.Span.sp_name = "op" then (self +. n.Spans.self, dur +. n.Spans.span.Span.sp_dur)
        else (self, dur))
      (0., 0.)
      (Spans.nodes (Span.tracer_spans tracer))
  in
  let readings, ledger_spans, ledger_failures = Ledger.run ctx in
  Hashtbl.replace readings "trace.overhead_frac" ((!t_traced /. !t_plain) -. 1.);
  Hashtbl.replace readings "trace.residual_frac" (op_self /. op_dur);
  let path = spans_file W.name ctx.Workload.seed in
  let all_spans =
    List.stable_sort
      (fun (a : Span.span) b -> compare a.Span.sp_start b.Span.sp_start)
      (Span.tracer_spans tracer @ ledger_spans)
  in
  Spans.write path (Spans.nodes all_spans);
  let failures = List.rev !failures @ ledger_failures in
  let attempted = 2 * W.traced_ops in
  let failed = List.length failures in
  let correct = failed = 0 in
  let detail =
    Json.Obj
      [ ("context", context ctx W.name true);
        ("spans_file", Json.Str path);
        ("traced_ops", Json.Int W.traced_ops);
        ("traced_s", Json.Float !t_traced);
        ("untraced_s", Json.Float !t_plain);
        ( "exact",
          Json.Obj
            [ ("guest_cycles", Json.Int exact.Workload.guest_cycles);
              ("code_words", Json.Int exact.Workload.code_words) ] );
        ("failures", Json.List (List.filteri (fun i _ -> i < 5) (List.map (fun m -> Json.Str m) failures))) ]
  in
  let readings = Hashtbl.fold (fun k v acc -> (k, Json.Float v) :: acc) readings [] in
  { detail; result = result ~correct ~attempted ~failed (metrics "per_layer" readings); exact; correct }

let run w ctx ~trace =
  (* the oracle's statistics, before anything is timed *)
  ignore (Lazy.force Inputs.reference);
  if trace then traced w ctx else untraced w ctx

(* --- the self-check ----------------------------------------------------------------- *)

(* At smoke length: BENCHMARK.json lists what the ledger measures, every
   named metric is emitted for every workload, and the exact readings repeat
   between two untraced runs and the traced run. *)
let selfcheck seed =
  let names key = List.map fst (catalogue key) in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun m -> problems := m :: !problems; prerr_endline ("selfcheck: " ^ m)) fmt in
  if names "per_layer" <> Ledger.names then
    problem "BENCHMARK.json's per_layer metrics differ from Ledger.names";
  List.iter
    (fun (module W : Workload.S) ->
      let ctx = { Workload.seed; seconds = 0.; nproc = Stat.nproc () } in
      let emitted o =
        List.map fst
          (match Json.member_exn "metrics" o.result with Json.Obj kvs -> kvs | _ -> [])
      in
      let check_names what expected o =
        List.iter
          (fun n -> if not (List.mem n (emitted o)) then problem "%s: %s run lacks %s" W.name what n)
          expected;
        if not o.correct then problem "%s: %s run failed its output checks" W.name what
      in
      let a = run (module W) ctx ~trace:false in
      let b = run (module W) ctx ~trace:false in
      let t = run (module W) ctx ~trace:true in
      check_names "untraced" (names "end_to_end") a;
      check_names "traced" (names "per_layer") t;
      List.iter
        (fun (what, o) ->
          if o.exact <> a.exact then problem "%s: exact readings differ in the %s run" W.name what)
        [ ("second untraced", b); ("traced", t) ];
      Printf.printf "selfcheck %s: guest_cycles %d code_words %d\n%!" W.name
        a.exact.Workload.guest_cycles a.exact.Workload.code_words)
    workloads;
  if !problems = [] then (print_endline "selfcheck: ok"; 0) else 1

(* --- command line ------------------------------------------------------------------- *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let mode = ref `Run in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S length of the timed loop");
      ("--trace", Arg.Set_int trace, "0|1 untraced end-to-end run, or traced per-layer run");
      ("--selfcheck", Arg.Unit (fun () -> mode := `Selfcheck), " smoke-length self-check");
      ("--record", Arg.Unit (fun () -> mode := `Record), " record the expected outputs (ref engine)") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  match !mode with
  | `Record -> Inputs.record ~report_json:(Mips_analysis.Report.json_all ~jobs:1 ())
  | `Selfcheck -> exit (selfcheck !seed)
  | `Run -> (
      match find !workload with
      | None ->
          prerr_endline ("perfbench: unknown workload " ^ !workload);
          exit 2
      | Some w ->
          let (module W : Workload.S) = w in
          let ctx =
            { Workload.seed = !seed; seconds = !seconds; nproc = Stat.nproc () }
          in
          let o = run w ctx ~trace:(!trace <> 0) in
          print_endline (Json.to_string o.detail);
          print_endline (Json.to_string o.result);
          exit (if o.correct then 0 else 1))
