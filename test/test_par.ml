(* The parallel evaluation harness: the Domain pool's determinism contract
   (ordered results, jobs-independent output, lowest-failing-index
   exceptions), the associative-merge algebra it leans
   on (Stats.merge), the artifact cache's physical sharing, and the
   end-to-end claim: `report --json` is byte-identical for any --jobs. *)

open Testutil
module G = QCheck2.Gen

let ( let* ) x f = G.bind x f

(* --- Mips_par ------------------------------------------------------------- *)

let test_map_order () =
  let xs = List.init 100 Fun.id in
  (* uneven per-item cost, so items finish out of order on purpose *)
  let f i = if i mod 7 = 0 then (Sys.opaque_identity (ignore (List.init (10_000 * (i mod 3 + 1)) Fun.id)); i * i) else i * i in
  Alcotest.(check (list int)) "jobs=4 equals serial map" (List.map f xs)
    (Mips_par.map ~jobs:4 f xs);
  Alcotest.(check (list int)) "jobs=1 equals serial map" (List.map f xs)
    (Mips_par.map ~jobs:1 f xs)

let test_map_edges () =
  Alcotest.(check (list int)) "empty list" [] (Mips_par.map ~jobs:4 succ []);
  Alcotest.(check (list int)) "singleton" [ 2 ] (Mips_par.map ~jobs:4 succ [ 1 ]);
  Alcotest.(check (list int)) "more jobs than items" [ 2; 3 ]
    (Mips_par.map ~jobs:16 succ [ 1; 2 ])

let test_exception_lowest_index () =
  (* whatever the scheduling, the caller sees the failure of the lowest
     failing index *)
  for _ = 1 to 10 do
    match
      Mips_par.map ~jobs:4
        (fun i -> if i >= 3 then failwith (string_of_int i) else i)
        (List.init 10 Fun.id)
    with
    | _ -> Alcotest.fail "expected an exception"
    | exception Failure msg -> check_string "lowest failing index" "3" msg
  done

let test_map_reduce_ordered () =
  (* a non-commutative merge: order of the fold is observable *)
  let xs = List.init 26 (fun i -> String.make 1 (Char.chr (Char.code 'a' + i))) in
  let serial = String.concat "" xs in
  check_string "non-commutative merge folds in submission order" serial
    (Mips_par.map_reduce ~jobs:4 ~map:Fun.id ~merge:( ^ ) ~zero:"" xs);
  check_int "sum via map_reduce" 4950
    (Mips_par.map_reduce ~jobs:3 ~map:Fun.id ~merge:( + ) ~zero:0
       (List.init 100 Fun.id))

(* --- Stats.merge algebra --------------------------------------------------- *)

(* Random statistics records.  Weighted cycles are dyadic rationals
   (quarters), so float addition is exact and associativity testable
   bit-for-bit. *)
let gen_stats : Mips_machine.Stats.t G.t =
  let open Mips_machine in
  let small = G.int_bound 30 in
  let* ints = G.list_size (G.return 17) small in
  let* quarters = G.int_bound 64 in
  let* fuel = G.bool in
  let* exns = G.list_size (G.int_bound 4) (G.pair (G.int_bound 6) (G.int_range 1 5)) in
  let* pairs =
    G.list_size (G.int_bound 4) (G.pair (G.int_bound 8) (G.int_bound 8))
  in
  G.return
    (match ints with
    | [ cy; st; lu; br; wo; no; al; me; bp; pw; bt; mb; fc; wl; ws; bl; bs ] ->
        let t = Stats.create () in
        t.Stats.cycles <- cy;
        t.Stats.stall_cycles <- st;
        t.Stats.load_use_stall_cycles <- lu;
        t.Stats.branch_stall_cycles <- br;
        t.Stats.words <- wo;
        t.Stats.nops <- no;
        t.Stats.alu_pieces <- al;
        t.Stats.mem_pieces <- me;
        t.Stats.branch_pieces <- bp;
        t.Stats.packed_words <- pw;
        t.Stats.branches_taken <- bt;
        t.Stats.mem_busy_cycles <- mb;
        t.Stats.free_cycles <- fc;
        t.Stats.synthetic_refs <- cy mod 7;
        t.Stats.fuel_exhausted <- fuel;
        t.Stats.word_refs.Stats.loads <- wl;
        t.Stats.word_refs.Stats.stores <- ws;
        t.Stats.byte_refs.Stats.loads <- bl;
        t.Stats.byte_refs.Stats.stores <- bs;
        t.Stats.word_char_refs.Stats.loads <- wl mod 5;
        t.Stats.byte_char_refs.Stats.stores <- bs mod 3;
        t.Stats.weighted.(0) <- float_of_int quarters /. 4.;
        List.iter
          (fun (code, n) ->
            for _ = 1 to n do
              Stats.count_exception t (Cause.of_code code)
            done)
          exns;
        List.iter
          (fun (p, c) -> Stats.record_stall_pair t ~producer_pc:p ~consumer_pc:c)
          pairs;
        t
    | _ -> assert false)

(* every observable view, canonically rendered *)
let stats_repr s = Mips_obs.Json.to_string (Mips_machine.Stats.to_json s)

let merge_associative =
  QCheck2.Test.make ~count:200 ~name:"Stats.merge is associative"
    (G.triple gen_stats gen_stats gen_stats)
    (fun (a, b, c) ->
      let open Mips_machine.Stats in
      String.equal (stats_repr (merge (merge a b) c)) (stats_repr (merge a (merge b c))))

let merge_identity =
  QCheck2.Test.make ~count:200 ~name:"Stats.zero is merge's identity"
    gen_stats
    (fun a ->
      let open Mips_machine.Stats in
      String.equal (stats_repr (merge (zero ()) a)) (stats_repr a)
      && String.equal (stats_repr (merge a (zero ()))) (stats_repr a))

let merge_preserves_operands =
  QCheck2.Test.make ~count:50 ~name:"Stats.merge leaves its operands alone"
    (G.pair gen_stats gen_stats)
    (fun (a, b) ->
      let ra = stats_repr a and rb = stats_repr b in
      ignore (Mips_machine.Stats.merge a b);
      String.equal ra (stats_repr a) && String.equal rb (stats_repr b))

(* --- Mips_artifact --------------------------------------------------------- *)

let fib = Mips_corpus.Corpus.find "fib"

let test_artifact_sharing () =
  Mips_artifact.clear ();
  let p1 = Mips_artifact.compiled fib.Mips_corpus.Corpus.source in
  let p2 = Mips_artifact.compiled fib.Mips_corpus.Corpus.source in
  check "same physical program" true (p1 == p2);
  let s1 = Mips_artifact.entry_sim fib in
  let s2 = Mips_artifact.entry_sim fib in
  check "same physical simulation" true (s1 == s2);
  check "simulation reuses the compiled program" true
    (s1.Mips_artifact.program == p1);
  let before = Mips_artifact.counters () in
  ignore (Mips_artifact.entry_sim fib);
  let after = Mips_artifact.counters () in
  check_int "a repeat lookup is a hit"
    (before.Mips_artifact.hits + 1)
    after.Mips_artifact.hits;
  check_int "and not a miss" before.Mips_artifact.misses
    after.Mips_artifact.misses

let test_artifact_parallel_sharing () =
  Mips_artifact.clear ();
  (* concurrent misses on one key: everyone must end up with the winner *)
  match Mips_par.map ~jobs:4 (fun _ -> Mips_artifact.entry_sim fib) (List.init 8 Fun.id) with
  | [] -> Alcotest.fail "no results"
  | first :: rest ->
      check "all callers share one artifact" true
        (List.for_all (fun s -> s == first) rest)

let test_artifact_distinct_keys () =
  Mips_artifact.clear ();
  let word = Mips_artifact.compiled fib.Mips_corpus.Corpus.source in
  let byte =
    Mips_artifact.compiled ~config:Mips_ir.Config.byte_machine
      fib.Mips_corpus.Corpus.source
  in
  let naive =
    Mips_artifact.compiled ~level:Mips_reorg.Pipeline.Naive
      fib.Mips_corpus.Corpus.source
  in
  check "configs do not alias" true (word != byte);
  check "levels do not alias" true (word != naive)

(* --- Refpatterns typed failures -------------------------------------------- *)

let test_refpatterns_failure_keeps_rows () =
  let bad =
    { Mips_corpus.Corpus.name = "broken";
      description = "references a variable it never declared";
      source = "program broken; begin x := 1 end.";
      input = "";
      text_heavy = false }
  in
  let with_bad, failures =
    Mips_analysis.Refpatterns.run Mips_ir.Config.default [ fib; bad ]
  in
  (match failures with
  | [ f ] ->
      check_string "the failure names the entry" "broken"
        f.Mips_analysis.Refpatterns.program;
      check "and says why" true
        (String.length f.Mips_analysis.Refpatterns.reason > 0)
  | fs -> Alcotest.failf "expected one failure, got %d" (List.length fs));
  let alone, none =
    Mips_analysis.Refpatterns.run Mips_ir.Config.default [ fib ]
  in
  check "no failures without the broken entry" true (none = []);
  check "surviving rows unchanged by the failure" true (with_bad = alone);
  check "and they carry real work" true
    (Mips_analysis.Refpatterns.total with_bad > 0)

(* --- the end-to-end determinism claim --------------------------------------- *)

let render_report jobs =
  (* fully cold: memo and artifact cache dropped, so the run genuinely
     recomputes everything under the given pool size *)
  Mips_artifact.clear ();
  Mips_analysis.Refpatterns.clear_memo ();
  Mips_obs.Json.to_string (Mips_analysis.Report.json_all ~jobs ())

let test_report_jobs_identical () =
  check_string "report --json byte-identical for --jobs 1 vs --jobs 4"
    (render_report 1) (render_report 4)

let suite =
  [ ( "par:pool",
      [ tc "ordered results" test_map_order;
        tc "edge cases" test_map_edges;
        tc "lowest failing index" test_exception_lowest_index;
        tc "ordered map_reduce" test_map_reduce_ordered ] );
    ( "par:stats-merge",
      qsuite [ merge_associative; merge_identity; merge_preserves_operands ] );
    ( "par:artifact",
      [ tc "physical sharing" test_artifact_sharing;
        tc "parallel sharing" test_artifact_parallel_sharing;
        tc "distinct keys" test_artifact_distinct_keys ] );
    ( "par:analysis",
      [ tc "typed failures keep rows" test_refpatterns_failure_keeps_rows;
        tc_slow "report byte-identical across jobs" test_report_jobs_identical ] ) ]
