(* Mips_par — a fixed-size Domain worker pool with deterministic fan-out.

   The evaluation harness is a bag of independent per-program jobs (compile
   this source, simulate that one) whose costs differ by orders of
   magnitude, so work is claimed item-by-item off a shared atomic counter:
   a worker that draws a Puzzle run does not stall the rest of the corpus
   behind it.  Determinism is preserved by construction — every result is
   written to the slot of the item that produced it and reassembled in
   submission order, so the output of [map] is byte-identical for any
   [jobs], including 1 (which runs inline on the calling domain and spawns
   nothing).

   Exceptions raised by the worker function are captured per item and
   re-raised on the calling domain for the lowest failing index — again
   independent of scheduling. *)

let configured_jobs : int option Atomic.t = Atomic.make None

(* Harness-wide default pool size, as set by a --jobs flag.  The fallback is
   what the runtime believes the hardware supports. *)
let set_default_jobs n = Atomic.set configured_jobs (Some (max 1 n))

let default_jobs () =
  match Atomic.get configured_jobs with
  | Some n -> n
  | None -> max 1 (Domain.recommended_domain_count ())

exception Job_failed of { label : string; error : exn }

let () =
  Printexc.register_printer (function
    | Job_failed { label; error } ->
        Some (Printf.sprintf "job %s failed: %s" label (Printexc.to_string error))
    | _ -> None)

type 'b slot =
  | Pending
  | Done of 'b
  | Failed of exn * Printexc.raw_backtrace

(* The one worker loop: run [body ctx i] for i = 0 .. n-1 on [jobs] domains
   (the caller counts as one), each worker claiming items off a shared
   counter.  Worker [w] builds its private context with [ctx w] first. *)
let run_pool ~jobs ~n ~ctx body =
  let next = Atomic.make 0 in
  let worker w () =
    let c = ctx w in
    let rec go () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        body c i;
        go ()
      end
    in
    go ()
  in
  let spawned = max 0 (min (jobs - 1) (n - 1)) in
  let domains = List.init spawned (fun k -> Domain.spawn (worker (k + 1))) in
  worker 0 ();
  List.iter Domain.join domains

(* [map] with a per-worker context handed to every job the worker runs *)
let map_ctx ?jobs ?label ~ctx f xs =
  let jobs = match jobs with Some j -> max 1 j | None -> default_jobs () in
  let items = Array.of_list xs in
  let n = Array.length items in
  if n = 0 then []
  else begin
    let results = Array.make n Pending in
    run_pool ~jobs ~n ~ctx (fun c i ->
        results.(i) <-
          (match f c items.(i) with
          | v -> Done v
          | exception e ->
              (* capture the backtrace of the failing job itself; with
                 [label] the exception is wrapped so the re-raise on the
                 calling domain names which job died *)
              let bt = Printexc.get_raw_backtrace () in
              let e =
                match label with
                | Some name -> Job_failed { label = name items.(i); error = e }
                | None -> e
              in
              Failed (e, bt)));
    Array.to_list
      (Array.map
         (function
           | Done v -> v
           | Failed (e, bt) -> Printexc.raise_with_backtrace e bt
           | Pending -> assert false)
         results)
  end

let map ?jobs ?label f xs = map_ctx ?jobs ?label ~ctx:ignore (fun () x -> f x) xs

(* Map each item, then fold the results in submission order.  The fold is
   sequential and ordered, so [merge] need not be commutative — and when it
   is associative the result is independent of how items were scheduled. *)
let map_reduce ?jobs ~map:f ~merge ~zero xs =
  List.fold_left merge zero (map ?jobs f xs)

(* Like [map], but each job runs inside a span on its worker's lane, so a
   host trace shows what every domain was doing when.  A lane is private
   to its worker, and the caller reads the merged spans only after this
   returns — i.e. after the join. *)
let map_spans ?jobs ~tracer ~name f xs =
  if not (Mips_obs.Span.tracer_enabled tracer) then map ?jobs f xs
  else
    map_ctx ?jobs ~ctx:(Mips_obs.Span.lane tracer)
      (fun sp x -> Mips_obs.Span.with_ sp (name x) (fun () -> f x))
      xs
