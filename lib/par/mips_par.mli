(** A fixed-size Domain worker pool with deterministic fan-out.

    The evaluation harness is a bag of independent per-program jobs whose
    costs differ by orders of magnitude, so workers claim items one at a
    time off a shared counter (a worker that draws a Puzzle run does not
    stall the rest of the corpus behind it).  Determinism is preserved by
    construction: every result is written to its item's slot and the list
    is reassembled in submission order, so {!map} output is byte-identical
    for any [jobs] — including 1, which runs inline and spawns nothing. *)

val set_default_jobs : int -> unit
(** Set the harness-wide default pool size (as a [--jobs] flag does);
    clamped to at least 1. *)

val default_jobs : unit -> int
(** The configured default, else [Domain.recommended_domain_count ()]. *)

exception Job_failed of { label : string; error : exn }
(** Wrapper for an exception escaping a labelled job (see {!map}'s [label]).
    A printer is registered, so an uncaught one reads
    ["job <label> failed: <error>"]. *)

val map : ?jobs:int -> ?label:('a -> string) -> ('a -> 'b) -> 'a list -> 'b list
(** [map f xs] with the work spread over [jobs] domains (the caller counts
    as one).  Results come back in submission order.  If [f] raises, the
    exception of the {e lowest failing index} is re-raised on the calling
    domain with the failing job's backtrace — independent of scheduling.
    With [label], the re-raised exception is wrapped in {!Job_failed}
    carrying the failing item's label (the backtrace still points at the
    original failure); without it the original exception comes through
    untouched. *)

val map_reduce :
  ?jobs:int -> map:('a -> 'b) -> merge:('c -> 'b -> 'c) -> zero:'c ->
  'a list -> 'c
(** Map each item on the pool, then fold the results in submission order on
    the calling domain.  The fold is sequential and ordered, so [merge]
    need not be commutative; when it is associative the result is
    independent of how items were scheduled. *)

val map_spans :
  ?jobs:int -> tracer:Mips_obs.Span.tracer -> name:('a -> string) ->
  ('a -> 'b) -> 'a list -> 'b list
(** Like {!map}, with each job timed as a span named [name item] on its
    worker's lane of [tracer] — a host trace then shows what every domain
    was doing when.  With {!Mips_obs.Span.no_tracer} this is exactly
    {!map}.  Read [Mips_obs.Span.tracer_spans] only after this returns
    (the workers have joined by then). *)
