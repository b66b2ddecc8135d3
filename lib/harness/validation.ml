(** Validated corpus sweep: translation-validate every optimization-pass
    application on every corpus program at every level, and report a
    per-pass verdict table (see EXPERIMENTS.md, "Validation sweep").

    The acceptance bar is zero [Counterexample] verdicts at every level;
    [Inconclusive] is tolerated only with its explicit budget-exhausted
    reason, which the table and the JSON report both carry. *)

module Costmodel = Overify_opt.Costmodel
module Programs = Overify_corpus.Programs
module Vclib = Overify_vclib.Vclib
module Tv = Overify_tv.Tv

type row = {
  program : Programs.t;
  level : Costmodel.t;
  report : Tv.report;
}

(** Compile [program] at [level] (linking the level's libc variant, exactly
    like {!Experiment.compile}) while validating every pass application. *)
let validate_one ?config (level : Costmodel.t) (program : Programs.t) : row =
  let (_, report) =
    Tv.validate ?config level (Vclib.frontend level program.Programs.source)
  in
  { program; level; report }

let row_to_json r =
  Printf.sprintf {|{"program": "%s", "report": %s}|} r.program.Programs.name
    (Tv.report_to_json r.report)

(** Run the sweep; returns the number of counterexample verdicts found (0
    is the expected result).  Writes the machine-readable report to
    [json_path] unless empty. *)
let run ?config ?(levels = Costmodel.all) ?(programs = Programs.programs)
    ?(json_path = "BENCH_validation.json") () : int =
  Report.section "Translation-validated corpus sweep";
  let rows =
    List.concat_map
      (fun level -> List.map (validate_one ?config level) programs)
      levels
  in
  let header =
    [ "program"; "level"; "applications"; "proved"; "cex"; "inconclusive";
      "queries"; "time (ms)" ]
  in
  let body =
    List.map
      (fun r ->
        let n = List.length r.report.Tv.records in
        let cex = List.length (Tv.counterexamples r.report) in
        let inc = List.length (Tv.inconclusives r.report) in
        let queries =
          List.fold_left
            (fun acc (rec_ : Tv.record) ->
              acc
              + Option.fold ~none:0
                  ~some:(fun r -> r.Overify_symex.Engine.queries)
                  rec_.Tv.outcome.Tv.run)
            0 r.report.Tv.records
        in
        [
          r.program.Programs.name;
          r.level.Costmodel.name;
          string_of_int n;
          string_of_int (n - cex - inc);
          string_of_int cex;
          string_of_int inc;
          Report.fmt_int queries;
          Report.ms r.report.Tv.time;
        ])
      rows
  in
  Report.table (header :: body);
  (* surface every non-proved verdict with its full reason *)
  List.iter
    (fun r ->
      List.iter
        (fun (rec_ : Tv.record) ->
          match rec_.Tv.outcome.Tv.verdict with
          | Tv.Proved _ -> ()
          | v ->
              Printf.printf "  %s @ %s: %s in %s: %s\n"
                r.program.Programs.name r.level.Costmodel.name rec_.Tv.pass
                rec_.Tv.fn (Tv.string_of_verdict v))
        r.report.Tv.records;
      match Tv.first_offender r.report with
      | Some o ->
          Printf.printf "  %s @ %s: FIRST OFFENDING PASS: %s (in %s)\n"
            r.program.Programs.name r.level.Costmodel.name o.Tv.pass o.Tv.fn
      | None -> ())
    rows;
  if json_path <> "" then begin
    let oc = open_out json_path in
    output_string oc
      (Printf.sprintf {|{"sweeps": [
%s
]}
|}
         (String.concat ",\n" (List.map row_to_json rows)));
    close_out oc;
    Printf.printf "\nmachine-readable report: %s\n" json_path
  end;
  let total_cex =
    List.fold_left
      (fun acc r -> acc + List.length (Tv.counterexamples r.report))
      0 rows
  in
  if total_cex = 0 then
    print_endline "all pass applications validated: zero counterexamples"
  else Printf.printf "VALIDATION FAILED: %d counterexample(s)\n" total_cex;
  total_cex
