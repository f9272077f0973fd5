(* The session journal on disk is four file kinds per session id:

     session-<id>.meta   "mipsd-meta"   the request, journalled before work
     session-<id>.ckpt   "mipsd-run"    a run checkpoint (machine + host)
     session-<id>.soak   "soak"         a soak checkpoint
     session-<id>.done   "mipsd-done"   the recorded final response

   fsck restores the journal's one invariant after arbitrary torn writes:
   every session either has a valid .done (its result is the truth and any
   leftover working files are stale), or a valid .meta (the session is a
   pure function of its journalled request, so anything else about it may
   be deleted and recomputed), or it is unrecoverable and gets moved into
   quarantine/ rather than wedging daemon startup.  Snapshot containers
   are digest-checked, so "valid" detects truncation and bit damage, not
   just unparsable garbage. *)

module Snapshot = Mips_resilience.Snapshot
module Json = Mips_obs.Json

type verdict = Intact | Repaired of string list | Quarantined of string list

type report = {
  dir : string;
  scanned : int;
  intact : int;
  repaired : int;
  quarantined : int;
  tmp_removed : int;
  sessions : (string * verdict) list;
}

let exts = [ ".meta"; ".ckpt"; ".soak"; ".done" ]

let kind_of_ext = function
  | ".meta" -> "mipsd-meta"
  | ".ckpt" -> "mipsd-run"
  | ".soak" -> "soak"
  | _ -> "mipsd-done"

(* "session-<id><ext>" for a known ext *)
let classify file =
  List.find_map
    (fun ext ->
      match Filename.chop_suffix_opt ~suffix:ext file with
      | Some base
        when String.length base > 8 && String.sub base 0 8 = "session-" ->
          Some (String.sub base 8 (String.length base - 8), ext)
      | _ -> None)
    exts

(* the two recovery roots, decoded all the way down *)
let read_meta path =
  let open Snapshot in
  let* c = load ~kind:"mipsd-meta" path in
  let* r = section c "request" in
  Result.map_error
    (fun e -> Corrupt (Frame.error_to_string e))
    (Protocol.decode_request r)

let read_done path =
  let open Snapshot in
  let* c = load ~kind:"mipsd-done" path in
  let* tenant = section c "tenant" in
  let* r = section c "response" in
  Result.map
    (fun resp -> (tenant, resp))
    (Result.map_error
       (fun e -> Corrupt (Frame.error_to_string e))
       (Protocol.decode_response r))

(* checkpoint payloads are re-validated on resume (a damaged run
   checkpoint just restarts the run), so container validity is the bar
   there; .meta and .done are the recovery roots and must decode all the
   way down *)
let valid path = function
  | ".meta" -> Result.is_ok (read_meta path)
  | ".done" -> Result.is_ok (read_done path)
  | ext -> Result.is_ok (Snapshot.load ~kind:(kind_of_ext ext) path)

let fsck dir =
  if not (Sys.file_exists dir && Sys.is_directory dir) then
    Error (Printf.sprintf "not a directory: %s" dir)
  else begin
    let files =
      Sys.readdir dir |> Array.to_list |> List.sort String.compare
    in
    (* leftovers of interrupted atomic writes: never the live copy *)
    let tmp_removed =
      List.fold_left
        (fun n f ->
          if Filename.check_suffix f ".tmp" then begin
            (try Sys.remove (Filename.concat dir f) with Sys_error _ -> ());
            n + 1
          end
          else n)
        0 files
    in
    let tbl = Hashtbl.create 16 in
    List.iter
      (fun f ->
        match classify f with
        | Some (id, ext) ->
            Hashtbl.replace tbl id
              (ext :: Option.value ~default:[] (Hashtbl.find_opt tbl id))
        | None -> ())
      files;
    let ids =
      Hashtbl.fold (fun id _ acc -> id :: acc) tbl []
      |> List.sort String.compare
    in
    let quarantine_dir = Filename.concat dir "quarantine" in
    let quarantine id present =
      if not (Sys.file_exists quarantine_dir) then (
        try Unix.mkdir quarantine_dir 0o755 with Unix.Unix_error _ -> ());
      List.filter_map
        (fun ext ->
          let name = "session-" ^ id ^ ext in
          let src = Filename.concat dir name in
          if Sys.file_exists src then (
            try
              Sys.rename src (Filename.concat quarantine_dir name);
              Some name
            with Sys_error _ -> None)
          else None)
        present
    in
    let sessions =
      List.map
        (fun id ->
          let present = Hashtbl.find tbl id in
          let have ext = List.mem ext present in
          let path ext = Filename.concat dir ("session-" ^ id ^ ext) in
          let ok ext = have ext && valid (path ext) ext in
          let rm ext =
            try Sys.remove (path ext) with Sys_error _ -> ()
          in
          let verdict =
            if ok ".done" then begin
              (* the recorded result is the truth; working files are
                 leftovers of a crash after completion *)
              let stale = List.filter have [ ".meta"; ".ckpt"; ".soak" ] in
              if stale = [] then Intact
              else begin
                List.iter rm stale;
                Repaired
                  (List.map
                     (fun e -> Printf.sprintf "removed stale session-%s%s" id e)
                     stale)
              end
            end
            else if ok ".meta" then begin
              (* recoverable from the journalled request: drop anything
                 that would poison the resume *)
              let actions = ref [] in
              List.iter
                (fun ext ->
                  if have ext && not (ok ext) then begin
                    rm ext;
                    actions :=
                      Printf.sprintf "removed corrupt session-%s%s" id ext
                      :: !actions
                  end)
                [ ".done"; ".ckpt"; ".soak" ];
              if !actions = [] then Intact else Repaired (List.rev !actions)
            end
            else
              (* no valid result, no valid request: nothing to replay
                 from — move the wreckage aside so the daemon still
                 starts *)
              Quarantined (quarantine id present)
          in
          (id, verdict))
        ids
    in
    let count p = List.length (List.filter (fun (_, v) -> p v) sessions) in
    Ok
      {
        dir;
        scanned = List.length sessions;
        intact = count (function Intact -> true | _ -> false);
        repaired = count (function Repaired _ -> true | _ -> false);
        quarantined = count (function Quarantined _ -> true | _ -> false);
        tmp_removed;
        sessions;
      }
  end

let report_json r =
  let verdict_json = function
    | Intact -> Json.Obj [ ("verdict", Json.Str "intact") ]
    | Repaired actions ->
        Json.Obj
          [ ("verdict", Json.Str "repaired");
            ("actions", Json.List (List.map (fun a -> Json.Str a) actions)) ]
    | Quarantined files ->
        Json.Obj
          [ ("verdict", Json.Str "quarantined");
            ("files", Json.List (List.map (fun f -> Json.Str f) files)) ]
  in
  Json.Obj
    [ ("schema", Json.Str "mipsd-fsck/1");
      ("dir", Json.Str r.dir);
      ("scanned", Json.Int r.scanned);
      ("intact", Json.Int r.intact);
      ("repaired", Json.Int r.repaired);
      ("quarantined", Json.Int r.quarantined);
      ("tmp_removed", Json.Int r.tmp_removed);
      ( "sessions",
        Json.Obj
          (List.map (fun (id, v) -> (id, verdict_json v)) r.sessions) ) ]

let pp_report ppf r =
  Format.fprintf ppf
    "fsck %s: %d session%s scanned, %d intact, %d repaired, %d quarantined"
    r.dir r.scanned
    (if r.scanned = 1 then "" else "s")
    r.intact r.repaired r.quarantined;
  if r.tmp_removed > 0 then
    Format.fprintf ppf ", %d stale temp file%s removed" r.tmp_removed
      (if r.tmp_removed = 1 then "" else "s");
  List.iter
    (fun (id, v) ->
      match v with
      | Intact -> ()
      | Repaired actions ->
          List.iter
            (fun a -> Format.fprintf ppf "@.  repaired %s: %s" id a)
            actions
      | Quarantined files ->
          List.iter
            (fun f -> Format.fprintf ppf "@.  quarantined %s: %s" id f)
            files)
    r.sessions
