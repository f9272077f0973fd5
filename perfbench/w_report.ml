(* paper_report: cold evaluation reports, the way `mipsc report --json` makes
   them.  Reports come in pairs, one at jobs=1 and one at jobs=nproc (in an
   order that alternates from pair to pair); one operation is a pair, timed
   as the sum of its two reports.  Every report's JSON must match the
   recorded digest, so the two reports of a pair are byte-equal too. *)

module Report = Mips_analysis.Report
module Span = Mips_obs.Span
open Workload

let name = "paper_report"

let traced_ops = 4

type env = { digest : string }

(* The pool size of report [i]. *)
let jobs_of (ctx : ctx) i =
  let serial_first = ((i / 2) + ctx.seed) mod 2 = 0 in
  if (i mod 2 = 0) = serial_first then 1 else ctx.nproc

let cold_report ~jobs tracer =
  let sp = Span.lane tracer 0 in
  Mips_artifact.clear ();
  Mips_analysis.Refpatterns.clear_memo ();
  Mips_par.set_default_jobs jobs;
  let outcomes =
    Span.with_ sp "report.prepare" (fun () ->
        Report.prepare_supervised ~jobs ~tracer ())
  in
  let text =
    Span.with_ sp "report.render" (fun () ->
        Inputs.report_text (Report.json_all ~jobs ()))
  in
  (List.length (Mips_resilience.Supervise.failures outcomes), text)

let check env ~jobs (failed_jobs, text) =
  if failed_jobs > 0 then
    Some (Printf.sprintf "report at jobs=%d: %d prepare jobs failed" jobs failed_jobs)
  else if Digest.to_hex (Digest.string text) <> env.digest then
    Some (Printf.sprintf "report at jobs=%d: JSON differs from %s" jobs Inputs.report_file)
  else None

let setup (ctx : ctx) =
  Mips_jit.install ();
  let env = { digest = Inputs.load_report_digest () } in
  (* warm-up: the first report in a process also sizes the heap *)
  (match check env ~jobs:ctx.nproc (cold_report ~jobs:ctx.nproc Span.no_tracer) with
  | Some m -> failwith m
  | None -> ());
  env

let teardown _ = ()

let op ctx env tracer i =
  let jobs = jobs_of ctx i in
  check env ~jobs (cold_report ~jobs tracer)

(* Sums of consecutive pairs. *)
let rec pairs = function
  | a :: b :: rest -> (a +. b) :: pairs rest
  | _ -> []

let measure ctx env =
  let r = timed_loop ~unit:2 ~unit_s:1.9 ctx (op ctx env Span.no_tracer) in
  let of_jobs jobs l = List.filteri (fun i _ -> (jobs_of ctx i = 1) = (jobs = 1)) l in
  let med l = Mips_obs.Json.Float (Stat.median l) in
  {
    r with
    samples = pairs r.samples;
    wall = pairs r.wall;
    attempted = r.attempted / 2;
    rates = List.map (fun x -> x /. 2.) r.rates;  (* a pair is one operation *)
    detail =
      [ ("report_serial_s", med (of_jobs 1 r.samples));
        ("report_parallel_s", med (of_jobs ctx.nproc r.samples));
        ("report_serial_wall_s", med (of_jobs 1 r.wall));
        ("report_parallel_wall_s", med (of_jobs ctx.nproc r.wall));
        ("reports", Mips_obs.Json.Int r.attempted) ];
  }

(* The corpus simulations and compiles every report performs (its "sim:"
   jobs), read back from the warm artifact cache. *)
let exact _ _ =
  List.fold_left
    (fun acc (e : Mips_corpus.Corpus.entry) ->
      if Mips_analysis.Refpatterns.heavy e then acc
      else
        List.fold_left
          (fun acc config ->
            let s = Mips_artifact.entry_sim ~config e in
            {
              guest_cycles = acc.guest_cycles + s.Mips_artifact.stats.Mips_machine.Stats.cycles;
              code_words =
                acc.code_words + Mips_machine.Program.static_count s.Mips_artifact.program;
            })
          acc
          [ Mips_ir.Config.default; Mips_ir.Config.byte_machine ])
    { guest_cycles = 0; code_words = 0 }
    Mips_corpus.Corpus.all
