(** [fsck] for the [mipsd] session journal.

    The journal's invariant is that every session on disk is one of:
    {ul
    {- {e finished} — a valid [.done] holds the recorded response; any
       leftover [.meta]/[.ckpt]/[.soak] is stale and removable;}
    {- {e recoverable} — a valid [.meta] holds the request, and because
       every job is a deterministic function of its journalled
       parameters, corrupt checkpoints (or a torn [.done]) may simply be
       deleted and recomputed;}
    {- {e unrecoverable} — neither root decodes.  These are moved into
       [quarantine/] so a damaged journal degrades to a smaller journal
       instead of a daemon that refuses to start.}}

    Run by [mipsd fsck] and by {!Server.start} before recovery, so the
    recovery scan only ever sees a journal the invariant holds for.
    Validity checks ride the {!Mips_resilience.Snapshot} container digest:
    truncation and bit damage from a torn write are detected, not just
    unparsable bytes. *)

type verdict =
  | Intact
  | Repaired of string list  (** repair actions taken *)
  | Quarantined of string list  (** files moved into [quarantine/] *)

type report = {
  dir : string;
  scanned : int;  (** sessions examined *)
  intact : int;
  repaired : int;
  quarantined : int;
  tmp_removed : int;  (** leftover atomic-write [.tmp] files deleted *)
  sessions : (string * verdict) list;  (** sorted by session id *)
}

val read_meta :
  string -> (Protocol.request, Mips_resilience.Snapshot.error) result
(** Read a session's [.meta] file: the journalled request. *)

val read_done :
  string -> (string * Protocol.response, Mips_resilience.Snapshot.error) result
(** Read a session's [.done] file: the owning tenant and the recorded
    response. *)

val fsck : string -> (report, string) result
(** Scan and repair [dir] in place.  [Error] only when [dir] is not a
    readable directory — damaged session files are never an error, they
    are what fsck exists to absorb. *)

val report_json : report -> Mips_obs.Json.t
(** Schema ["mipsd-fsck/1"]. *)

val pp_report : Format.formatter -> report -> unit
