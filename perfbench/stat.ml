(* Clocks, order statistics and process facts shared by every workload. *)

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* --- host speed ---------------------------------------------------------------

   On a shared host the CPU's speed drifts by a fifth or more over minutes,
   and flips between a fast and a slow mode within seconds.  A fixed work
   unit run between operations tracks that speed: every timing the benchmark
   reports at the end-to-end level is scaled by [probe_ref_s / probe time]
   around it, i.e. expressed at the speed where the probe takes
   [probe_ref_s].  The probe is benchmark code that no library change can
   alter, shaped like the simulators it stands in for: a small interpreter
   loop (table loads and stores, data-dependent branches) over a 2 MB table
   allocated once, restored before each round so that every round does the
   same work.  Its loop allocates nothing, so its speed does not depend on
   the heap, the GC settings or the domains the code under test leaves
   behind.
   It is timed three times; the median discards a round that another
   thread preempted. *)

let probe_ref_s = 0.002
(* 2 MB, about the size of the minor heap the simulators sweep, so that
   the probe feels the cache contention they do *)
let probe_program = Array.init (1 lsl 18) (fun i -> (i * 2654435761) land 0xffff)
let probe_code = Array.copy probe_program
let probe_regs = Array.make 16 1

let probe_once () =
  let code = probe_code and regs = probe_regs in
  Array.blit probe_program 0 code 0 (Array.length code);
  Array.fill regs 0 (Array.length regs) 1;
  let t0 = now () in
  let pc = ref 0 in
  for _ = 1 to 250_000 do
    let op = Array.unsafe_get code !pc in
    let r = (op lsr 2) land 15 and q = (op lsr 6) land 15 in
    (match op land 3 with
    | 0 -> Array.unsafe_set regs r (Array.unsafe_get regs r + Array.unsafe_get regs q)
    | 1 -> Array.unsafe_set regs r (Array.unsafe_get regs q lxor op)
    | 2 ->
        if Array.unsafe_get regs q land 1 = 0 then
          Array.unsafe_set regs r (Array.unsafe_get regs r lsr 1)
    | _ -> Array.unsafe_set code (!pc lxor 1) ((op + Array.unsafe_get regs r) land 0xffff));
    pc := (!pc + 1 + ((op lsr 10) land 7)) land (Array.length code - 1)
  done;
  ignore (Sys.opaque_identity regs);
  now () -. t0

let probe () =
  let a = probe_once () in
  let b = probe_once () in
  let c = probe_once () in
  Float.max (Float.min a b) (Float.min (Float.max a b) c)

(* Wall time [dt] at reference speed, given the probe times around it. *)
let at_ref dt ~before ~after = dt *. probe_ref_s /. ((before +. after) /. 2.)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs =
  match sorted xs with
  | [||] -> nan
  | a ->
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* The highest percentile with at least [beyond] samples above it: the
   sample at ascending index n-1-beyond, i.e. percentile 100(n-beyond)/n.
   With too few samples the maximum stands in, and the record says so. *)
type tail = { value : float; percentile : float; samples_beyond : int }

let tail ?(beyond = 10) xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then { value = nan; percentile = nan; samples_beyond = 0 }
  else if n <= beyond then
    { value = a.(n - 1); percentile = 100.; samples_beyond = 0 }
  else
    {
      value = a.(n - 1 - beyond);
      percentile = 100. *. float_of_int (n - beyond) /. float_of_int n;
      samples_beyond = beyond;
    }

(* Fields of /proc/self/status, e.g. "VmHWM:  123456 kB". *)
let proc_status_field key =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> None
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> None
        | line ->
            let k = String.length key in
            if String.length line > k && String.sub line 0 k = key then
              Some (String.trim (String.sub line (k + 1) (String.length line - k - 1)))
            else scan ()
      in
      let v = scan () in
      close_in ic;
      v

let peak_rss_mb () =
  match proc_status_field "VmHWM" with
  | Some v -> (
      match String.split_on_char ' ' v with
      | kb :: _ -> float_of_string kb /. 1024.
      | [] -> nan)
  | None -> nan

(* What `nproc` prints: the CPUs this process may run on. *)
let nproc () =
  let count_ranges s =
    List.fold_left
      (fun acc part ->
        match String.split_on_char '-' (String.trim part) with
        | [ a ] when a <> "" -> acc + (ignore (int_of_string a); 1)
        | [ a; b ] -> acc + (int_of_string b - int_of_string a + 1)
        | _ -> acc)
      0
      (String.split_on_char ',' s)
  in
  match proc_status_field "Cpus_allowed_list" with
  | Some s -> ( try max 1 (count_ranges s) with _ -> Domain.recommended_domain_count ())
  | None -> Domain.recommended_domain_count ()

(* A deterministic stream for input choices, independent of [Random]'s
   global state (which library code may also draw from). *)
let rng seed = Random.State.make [| 0x7065; seed |]

let shuffle st a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a
