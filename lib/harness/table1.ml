(** Table 1: the paper's motivating measurement — exhaustively exploring all
    paths of [wc] for symbolic strings, at every optimization level.

    Columns mirror the paper: t_verify, t_compile, t_run (we report simulated
    cycles and interpretation wall time), number of interpreted instructions,
    number of paths. *)

module Costmodel = Overify_opt.Costmodel
module Engine = Overify_symex.Engine

type row = {
  level : string;
  t_verify_ms : float;
  t_compile_ms : float;
  run_cycles : float;
  t_run_ms : float;
  instructions : int;
  paths : int;
  complete : bool;
}

(** The measured program.  [Error] (rather than an exception) on a
    thinned corpus, so harness entry points degrade to a diagnostic
    instead of aborting the whole report. *)
let wc () : (Overify_corpus.Programs.t, string) result =
  match Overify_corpus.Programs.find "wc" with
  | Some p -> Ok p
  | None ->
      Error
        (Printf.sprintf
           "corpus has no program 'wc' (Table 1 measures it); available: %s"
           (String.concat ", " Overify_corpus.Programs.names))

let measure ?(input_size = 4) ?(timeout = 60.0) (level : Costmodel.t)
    (p : Overify_corpus.Programs.t) : row =
  let c = Experiment.compile level p in
  let v =
    Engine.run
      ~config:{ Engine.default_config with input_size; timeout }
      c.Experiment.modul
  in
  let cycles = Experiment.measure_cycles ~size:14 c in
  let t_run = Experiment.measure_run_time ~size:14 c in
  {
    level = level.Costmodel.name;
    t_verify_ms = v.Engine.time *. 1000.;
    t_compile_ms = c.Experiment.t_compile *. 1000.;
    run_cycles = cycles;
    t_run_ms = t_run *. 1000.;
    instructions = v.Engine.instructions;
    paths = v.Engine.paths;
    complete = v.Engine.complete;
  }

let rows ?input_size ?timeout () : (row list, string) result =
  Result.map
    (fun p -> List.map (fun cm -> measure ?input_size ?timeout cm p) Costmodel.all)
    (wc ())

let print ?(input_size = 4) ?timeout () =
  Report.section
    (Printf.sprintf
       "Table 1: exhaustive symbolic execution of wc (%d symbolic bytes)"
       input_size);
  match rows ~input_size ?timeout () with
  | Error msg ->
      Printf.printf "table 1 unavailable: %s\n" msg;
      []
  | Ok rs ->
      Report.table
        ([ "Optimization"; "t_verify [ms]"; "t_compile [ms]"; "t_run [cycles]";
           "t_run [ms]"; "# instructions"; "# paths"; "complete" ]
        :: List.map
             (fun r ->
               [
                 r.level;
                 Printf.sprintf "%.1f" r.t_verify_ms;
                 Printf.sprintf "%.1f" r.t_compile_ms;
                 Printf.sprintf "%.0f" r.run_cycles;
                 Printf.sprintf "%.2f" r.t_run_ms;
                 Report.fmt_int r.instructions;
                 Report.fmt_int r.paths;
                 string_of_bool r.complete;
               ])
             rs);
      rs
