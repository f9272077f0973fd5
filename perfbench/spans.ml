(* Span bookkeeping for the traced run.

   Spans are recorded with Mips_obs.Span, the collector behind
   `mipsc report --host-trace`, so the benchmark and the CLI share one timing
   mechanism.  A span's parent is the innermost span of the same lane that
   encloses it one level up; self time is the span's duration minus what its
   children cover. *)

module Span = Mips_obs.Span
module Json = Mips_obs.Json

type node = { span : Span.span; parent : int option; self : float }

let ends (s : Span.span) = s.Span.sp_start +. s.Span.sp_dur

(* Spans sorted by start; on each lane a stack of open ancestors gives the
   parent of the next span. *)
let nodes spans =
  let spans = Array.of_list spans in
  let parents = Array.make (Array.length spans) None in
  let child_time = Array.make (Array.length spans) 0. in
  let stacks : (int, int list) Hashtbl.t = Hashtbl.create 8 in
  Array.iteri
    (fun i (s : Span.span) ->
      let lane = s.Span.sp_lane in
      let rec pop = function
        | j :: rest
          when spans.(j).Span.sp_depth >= s.Span.sp_depth
               || ends spans.(j) < s.Span.sp_start ->
            pop rest
        | stack -> stack
      in
      let stack = pop (Option.value ~default:[] (Hashtbl.find_opt stacks lane)) in
      (match stack with
      | j :: _ ->
          parents.(i) <- Some j;
          child_time.(j) <- child_time.(j) +. s.Span.sp_dur
      | [] -> ());
      Hashtbl.replace stacks lane (i :: stack))
    spans;
  Array.to_list
    (Array.mapi
       (fun i s ->
         { span = s; parent = parents.(i);
           self = Float.max 0. (s.Span.sp_dur -. child_time.(i)) })
       spans)

(* Sum of self times per key, where [key] maps a span name to the layer it
   is charged to (None: not a layer span). *)
let self_by ~key nodes =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun n ->
      match key n.span.Span.sp_name with
      | Some k ->
          Hashtbl.replace tbl k
            (n.self +. Option.value ~default:0. (Hashtbl.find_opt tbl k))
      | None -> ())
    nodes;
  fun k -> Option.value ~default:0. (Hashtbl.find_opt tbl k)

let prefix p name =
  String.length name >= String.length p && String.sub name 0 (String.length p) = p

(* Written once, when the run ends: one object per span with its parent's
   index, so the tree can be rebuilt offline. *)
let write path nodes =
  let json =
    Json.List
      (List.mapi
         (fun i n ->
           let s = n.span in
           Json.Obj
             [ ("id", Json.Int i);
               ("name", Json.Str s.Span.sp_name);
               ("lane", Json.Int s.Span.sp_lane);
               ("start_s", Json.Float s.Span.sp_start);
               ("dur_s", Json.Float s.Span.sp_dur);
               ("self_s", Json.Float n.self);
               ( "parent",
                 match n.parent with Some j -> Json.Int j | None -> Json.Null ) ])
         nodes)
  in
  let oc = open_out path in
  output_string oc (Json.to_string json);
  output_char oc '\n';
  close_out oc
