(* The corpus under both addressing modes, and the expected results the
   benchmark checks every run against.  The expected outputs and exit
   statuses are recorded files (`main.exe --record`); the expected
   statistics come from a reference-interpreter run of the same compiled
   program, so a compiler change that alters the code changes them too.
   The reference interpreter is the semantic oracle for both. *)

module Corpus = Mips_corpus.Corpus
module Config = Mips_ir.Config
module Cpu = Mips_machine.Cpu
module Hosted = Mips_machine.Hosted
module Stats = Mips_machine.Stats
module Json = Mips_obs.Json

let fuel = 500_000_000
let dir = Filename.concat "perfbench" "expected"
let corpus_file = Filename.concat dir "corpus.tsv"
let report_file = Filename.concat dir "report.digest"

let targets = [ ("word", Config.default); ("byte", Config.byte_machine) ]

type prog = {
  entry : Corpus.entry;
  target : string;  (* "word" or "byte" *)
  config : Config.t;
  program : Mips_machine.Program.t;
}

let key p = p.entry.Corpus.name ^ "." ^ p.target

let compile_all () =
  List.concat_map
    (fun (e : Corpus.entry) ->
      List.map
        (fun (target, config) ->
          { entry = e; target; config;
            program = Mips_codegen.Compile.compile ~config e.Corpus.source })
        targets)
    Corpus.all

let code_words progs =
  List.fold_left
    (fun acc p -> acc + Mips_machine.Program.static_count p.program)
    0 progs

(* One run on a fresh machine, as `mipsc run [--byte-addressed] --engine E`
   does it. *)
let run ~engine p =
  let cpu = Cpu.create ~config:(Mips_codegen.Compile.machine_config p.config) () in
  let r = Hosted.run_program_on ~fuel ~input:p.entry.Corpus.input ~engine cpu p.program in
  (r, Cpu.stats cpu)

(* What a run must reproduce: its output and exit status equal the recorded
   files; its statistics equal the reference interpreter's on the same
   compiled program. *)
type expect = { exit_status : int option; output_md5 : string }
type counts = { words : int; cycles : int; stalls : int }

let observe ((r : Hosted.result), (s : Stats.t)) =
  ( { exit_status = r.Hosted.exit_status;
      output_md5 = Digest.to_hex (Digest.string r.Hosted.output) },
    { words = s.Stats.words; cycles = s.Stats.cycles; stalls = s.Stats.stall_cycles } )

let work_dir = ".perfbench"
let ensure_work_dir () = if not (Sys.file_exists work_dir) then Unix.mkdir work_dir 0o755

(* The reference interpreter's statistics for every program.  A full sweep
   takes 10-20 s, so it is kept under [work_dir] keyed by this
   executable's digest: it runs once per build, in the first process that
   needs it, and never inside a timed set-up or operation. *)
let reference =
  lazy
    (let tbl = Hashtbl.create 64 in
     ensure_work_dir ();
     let file =
       Filename.concat work_dir
         ("ref-" ^ Digest.to_hex (Digest.file Sys.executable_name) ^ ".tsv")
     in
     if Sys.file_exists file then begin
       let ic = open_in file in
       (try
          while true do
            Scanf.sscanf (input_line ic) "%s@\t%d\t%d\t%d" (fun k words cycles stalls ->
                Hashtbl.replace tbl k { words; cycles; stalls })
          done
        with End_of_file -> close_in ic)
     end
     else begin
       let progs = compile_all () in
       let runs =
         Mips_par.map ~jobs:(Stat.nproc ())
           (fun p -> snd (observe (run ~engine:Cpu.Ref p)))
           progs
       in
       let tmp = file ^ ".tmp" in
       let oc = open_out tmp in
       List.iter2
         (fun p c ->
           Hashtbl.replace tbl (key p) c;
           Printf.fprintf oc "%s\t%d\t%d\t%d\n" (key p) c.words c.cycles c.stalls)
         progs runs;
       close_out oc;
       Sys.rename tmp file
     end;
     tbl)

let reference_counts p = Hashtbl.find (Lazy.force reference) (key p)

(* [None] when the run matches, else what differs. *)
let check expected p outcome =
  let got, counts = observe outcome in
  let want = reference_counts p in
  match Hashtbl.find_opt expected (key p) with
  | None -> Some (key p ^ ": no expected result recorded")
  | Some e when e <> got || (fst outcome).Hosted.fault <> None ->
      Some
        (Printf.sprintf "%s: expected exit %s md5 %s, got exit %s md5 %s%s" (key p)
           (Option.fold ~none:"-" ~some:string_of_int e.exit_status)
           e.output_md5
           (Option.fold ~none:"-" ~some:string_of_int got.exit_status)
           got.output_md5
           (if (fst outcome).Hosted.fault = None then "" else " and a fault"))
  | Some _ when counts <> want ->
      Some
        (Printf.sprintf
           "%s: ref run has words %d cycles %d stalls %d, this run words %d cycles %d stalls %d"
           (key p) want.words want.cycles want.stalls counts.words counts.cycles counts.stalls)
  | Some _ -> None

let load_expected () =
  let tbl = Hashtbl.create 64 in
  let ic = open_in corpus_file in
  (try
     while true do
       match String.split_on_char '\t' (input_line ic) with
       | [ k; ex; md5 ] ->
           Hashtbl.replace tbl k
             { exit_status = (if ex = "-" then None else Some (int_of_string ex));
               output_md5 = md5 }
       | _ -> failwith ("malformed line in " ^ corpus_file)
     done
   with End_of_file -> close_in ic);
  tbl

let load_report_digest () =
  let ic = open_in report_file in
  let d = String.trim (input_line ic) in
  close_in ic;
  d

(* The text `mipsc report --json` prints. *)
let report_text json = Format.asprintf "%a@." Json.pp json

let record ~report_json =
  let oc = open_out corpus_file in
  List.iter
    (fun p ->
      let e, _ = observe (run ~engine:Cpu.Ref p) in
      Printf.fprintf oc "%s\t%s\t%s\n" (key p)
        (Option.fold ~none:"-" ~some:string_of_int e.exit_status)
        e.output_md5)
    (compile_all ());
  close_out oc;
  let oc = open_out report_file in
  output_string oc (Digest.to_hex (Digest.string (report_text report_json)) ^ "\n");
  close_out oc
