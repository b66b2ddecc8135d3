(** Benchmark harness: regenerates every table and figure of the paper's
    evaluation (see DESIGN.md §3 for the experiment index).

      dune exec bench/main.exe                 # everything, quick settings
      dune exec bench/main.exe -- SUBCOMMAND [FLAGS]

    The subcommands and their flags are the [commands] table at the end
    of this file; any first argument not in it prints them to stderr and
    exits 2.

    Absolute numbers will differ from the paper (our substrate is a
    simulator, their testbed was KLEE+STP on x86); the shapes — who wins,
    by what order of magnitude, where the trade-off flips — are the
    reproduction target.  EXPERIMENTS.md records paper-vs-measured. *)

module H = Overify_harness
module E = Overify_symex.Engine
module Binfile = Overify_solver.Binfile
module Store = Overify_solver.Store

(** The value that follows [name] in [args], if any. *)
let flag name args =
  let rec go = function
    | f :: v :: _ when f = name -> Some v
    | _ :: rest -> go rest
    | [] -> None
  in
  go args

(** [flag] read as a number; a malformed one is a usage error (exit 2). *)
let num_flag of_string name args =
  Option.map
    (fun v ->
      match of_string v with
      | Some x -> x
      | None ->
          Printf.eprintf "bench: %s expects a number\n" name;
          exit 2)
    (flag name args)

let int_flag = num_flag int_of_string_opt
let float_flag = num_flag float_of_string_opt
let parse_flags args = (int_flag "-n" args, float_flag "-t" args)

(** The corpus programs [-p NAME] selects; the whole corpus without it. *)
let programs_flag cmd args =
  match flag "-p" args with
  | None -> Overify_corpus.Programs.programs
  | Some name -> (
      match Overify_corpus.Programs.find name with
      | Some p -> [ p ]
      | None ->
          Printf.eprintf "bench %s: unknown corpus program %S\n" cmd name;
          exit 2)

let run_table1 args =
  let (n, t) = parse_flags args in
  let input_size = Option.value n ~default:4 in
  let timeout = Option.value t ~default:60.0 in
  ignore (H.Table1.print ~input_size ~timeout ());
  (* the paper emphasizes scaling: show a small sweep of input sizes *)
  match H.Table1.wc () with
  | Error msg -> Printf.printf "scaling sweep skipped: %s\n" msg
  | Ok wc when not (List.mem "-n" args) ->
    H.Report.section "Table 1 (scaling): paths by symbolic input size";
    let sizes = [ 2; 3; 4; 5 ] in
    let rows =
      List.map
        (fun (cm : Overify_opt.Costmodel.t) ->
          cm.Overify_opt.Costmodel.name
          :: List.map
               (fun sz ->
                 let v =
                   H.Figure4.measure_one ~input_size:sz ~timeout:30.0 cm wc
                 in
                 Printf.sprintf "%d%s" v.H.Figure4.paths
                   (if v.H.Figure4.complete then "" else "+"))
               sizes)
        Overify_opt.Costmodel.all
    in
    H.Report.table
      (("level" :: List.map (fun sz -> Printf.sprintf "n=%d" sz) sizes) :: rows);
    print_endline "('+' = budget exhausted before full exploration)"
  | Ok _ -> ()

let run_table2 args =
  let (n, t) = parse_flags args in
  ignore (H.Table2.print ?timeout:t ~input_size:(Option.value n ~default:4) ())

let run_table3 _args = ignore (H.Table3.print ())

let run_figure4 args =
  let (n, t) = parse_flags args in
  ignore
    (H.Figure4.print
       ~input_size:(Option.value n ~default:5)
       ~timeout:(Option.value t ~default:10.0)
       ())

let run_precision _args = ignore (H.Precision.print ())

(* ---- solver acceleration benchmark: every corpus program at -O0/-O3/
   -OVERIFY is explored twice, once with the solver reuse layers off and
   once on.  The determinism contract requires byte-identical verdicts
   (paths, exit codes, bugs, coverage) — any disagreement is a hard failure
   (exit 1).  The interesting numbers are the raw blast+SAT invocations
   saved and where each layer's hits came from.  A final persistent-store
   round trip (same exploration twice against a temp --cache-dir) shows
   cross-run reuse.  Rows go to BENCH_solver.json. ---- *)

let run_solve args =
  let (n, t) = parse_flags args in
  let input_size = Option.value n ~default:4 in
  let timeout = Option.value t ~default:30.0 in
  let programs = programs_flag "solve" args in
  let single = flag "-p" args <> None in
  let out = Option.value (flag "-o" args) ~default:"BENCH_solver.json" in
  let verify ?store ~solver_cache c =
    E.run
      ~config:
        {
          E.default_config with
          input_size;
          timeout;
          solver_cache = Some solver_cache;
          store;
        }
      c.H.Experiment.modul
  in
  H.Report.section
    (Printf.sprintf
       "Solver acceleration: reuse layers off vs on (n=%d bytes)" input_size);
  let levels =
    [ Overify_opt.Costmodel.o0; Overify_opt.Costmodel.o3;
      Overify_opt.Costmodel.overify ]
  in
  let failures = ref 0 in
  let measurements =
    List.concat_map
      (fun (p : Overify_corpus.Programs.t) ->
        List.map
          (fun (level : Overify_opt.Costmodel.t) ->
            let c = H.Experiment.compile level p in
            let off = verify ~solver_cache:false c in
            let on = verify ~solver_cache:true c in
            (* byte-identical verdicts are only promised for complete runs:
               a wall-clock timeout truncates the faster (cached) run at a
               different point than the slower one *)
            let comparable = off.E.complete && on.E.complete in
            let agree = (not comparable) || E.same_verdicts off on in
            if not agree then begin
              incr failures;
              Printf.eprintf
                "bench solve: VERDICT MISMATCH for %s at %s (cache off vs \
                 on)\n"
                p.Overify_corpus.Programs.name
                level.Overify_opt.Costmodel.name
            end;
            let hits = on.E.cache_hits + on.E.hits_canon + on.E.hits_store in
            (* in single-program mode (the CI smoke) zero hits is a hard
               failure; over the full corpus it is reported but legal —
               a program whose every query is a distinct single-component
               conjunction (the executor's own model fast path already
               absorbed the reusable ones) has nothing for the chain to
               reuse *)
            if hits = 0 && on.E.queries > 0 && single then begin
              incr failures;
              Printf.eprintf
                "bench solve: zero acceleration hits for %s at %s (%d \
                 queries)\n"
                p.Overify_corpus.Programs.name
                level.Overify_opt.Costmodel.name on.E.queries
            end;
            (p.Overify_corpus.Programs.name,
             level.Overify_opt.Costmodel.name, off, on, agree))
          levels)
      programs
  in
  let rows =
    [ "program"; "level"; "queries"; "components"; "solves off"; "solves on";
      "saved"; "canon"; "agree" ]
    :: List.map
         (fun (name, lvl, (off : E.result), (on : E.result), agree) ->
           [
             name; lvl;
             string_of_int on.E.queries;
             string_of_int on.E.components;
             string_of_int off.E.component_solves;
             string_of_int on.E.component_solves;
             string_of_int (off.E.component_solves - on.E.component_solves);
             string_of_int on.E.hits_canon;
             string_of_bool agree;
           ])
         measurements
  in
  H.Report.table rows;
  print_endline
    "(saved = raw blast+SAT invocations the reuse layers avoided; verdicts \
     are byte-identical by contract)";
  let total f =
    List.fold_left (fun acc (_, _, off, on, _) -> acc + f off on) 0 measurements
  in
  let saved = total (fun (off : E.result) (on : E.result) ->
      off.E.component_solves - on.E.component_solves)
  and hits = total (fun _ (on : E.result) ->
      on.E.cache_hits + on.E.hits_canon + on.E.hits_store)
  in
  Printf.printf "total: %d raw solves saved, %d layer hits\n" saved hits;
  if hits = 0 then begin
    incr failures;
    prerr_endline "bench solve: the acceleration chain produced no hits at all"
  end;
  (* persistent-store round trip: the same exploration twice, each loading
     the store from one directory and saving it back — the second run
     answers from the store *)
  let store_demo =
    match programs with
    | [] -> None
    | p :: _ ->
        Binfile.with_temp_dir "overify_bench_store" @@ fun dir ->
        let c = H.Experiment.compile Overify_opt.Costmodel.overify p in
        let verify_in_dir () =
          Store.with_dir ~dir (fun store ->
              verify ~store ~solver_cache:true c)
        in
        let cold = verify_in_dir () in
        let warm = verify_in_dir () in
        if warm.E.hits_store = 0 && warm.E.queries > 0 then begin
          incr failures;
          Printf.eprintf
            "bench solve: persistent store produced no hits on a warm \
             re-run of %s\n"
            p.Overify_corpus.Programs.name
        end;
        Printf.printf
          "store round-trip (%s @ -OVERIFY): cold solves=%d, warm solves=%d \
           (store hits=%d)\n"
          p.Overify_corpus.Programs.name cold.E.component_solves
          warm.E.component_solves warm.E.hits_store;
        Some (p.Overify_corpus.Programs.name, cold, warm)
  in
  let json_row (name, lvl, (off : E.result), (on : E.result), agree) =
    Printf.sprintf
      "  {\"program\": %S, \"level\": %S, \"queries\": %d, \"components\": \
       %d, \"component_solves_off\": %d, \"component_solves_on\": %d, \
       \"cache_hits\": %d, \"hits_canon\": %d, \"hits_store\": %d, \
       \"solver_ms_off\": %.3f, \"solver_ms_on\": %.3f, \"agree\": %b}"
      name lvl on.E.queries on.E.components off.E.component_solves
      on.E.component_solves on.E.cache_hits on.E.hits_canon on.E.hits_store
      (off.E.solver_time *. 1000.) (on.E.solver_time *. 1000.) agree
  in
  let store_json =
    match store_demo with
    | None -> ""
    | Some (name, cold, warm) ->
        Printf.sprintf
          ",\n  {\"store_round_trip\": %S, \"cold_solves\": %d, \
           \"warm_solves\": %d, \"warm_store_hits\": %d}"
          name cold.E.component_solves warm.E.component_solves
          warm.E.hits_store
  in
  Out_channel.with_open_text out (fun oc ->
      Printf.fprintf oc "[\n%s%s\n]\n"
        (String.concat ",\n" (List.map json_row measurements))
        store_json);
  Printf.printf "wrote %s\n" out;
  if !failures > 0 then exit 1

(* ---- compositional-summary benchmark: every corpus program at -O0 and
   -OVERIFY is verified three times with summaries on against one persistent
   store — cold (store empty, every summary built), warm (same binary,
   every summary answered from the store) and edited (one libc helper gets
   a semantically neutral edit, so only its callgraph cone is rebuilt and
   everything outside it cache-hits).  The incremental contract is asserted:
   warm recomputes nothing, the edited run rebuilds a strict subset of the
   cold run's summaries, and (for complete runs) re-verifies strictly fewer
   instructions than cold.  Rows go to BENCH_summary.json. ---- *)

let run_summary args =
  let (n, t) = parse_flags args in
  let input_size = Option.value n ~default:3 in
  let timeout = Option.value t ~default:30.0 in
  let programs = programs_flag "summary" args in
  let single = flag "-p" args <> None in
  let out = Option.value (flag "-o" args) ~default:"BENCH_summary.json" in
  let module Sum = Overify_summary.Summary in
  H.Report.section
    (Printf.sprintf
       "Compositional summaries: cold vs warm vs one-function-edited (n=%d \
        bytes)" input_size);
  let levels = [ Overify_opt.Costmodel.o0; Overify_opt.Costmodel.overify ] in
  let failures = ref 0 in
  (* edit the first candidate whose callgraph cone contains a second
     candidate (so the edited run demonstrably rebuilds the cone and
     cache-hits outside it); a leaf nobody calls is the fallback *)
  let pick_edit m cands =
    let fps0 = Sum.fingerprints m in
    let cone_of fn =
      let fps1 = Sum.fingerprints (Sum.edit_function m fn) in
      List.filter
        (fun c -> Hashtbl.find_opt fps0 c <> Hashtbl.find_opt fps1 c)
        cands
    in
    match cands with
    | [] -> None
    | first :: _ ->
        let rec go = function
          | [] -> Some (first, cone_of first)
          | fn :: rest ->
              let cone = cone_of fn in
              if List.length cone >= 2 then Some (fn, cone) else go rest
        in
        go cands
  in
  let measurements =
    List.concat_map
      (fun (p : Overify_corpus.Programs.t) ->
        List.filter_map
          (fun (level : Overify_opt.Costmodel.t) ->
            let c = H.Experiment.compile level p in
            let cands = Sum.candidates c.H.Experiment.modul in
            match pick_edit c.H.Experiment.modul cands with
            | None -> None  (* nothing summarizable: nothing to measure *)
            | Some (edit_fn, cone) ->
                let cold, warm, edited =
                  Binfile.with_temp_dir "overify_bench_summary" @@ fun dir ->
                  let verify m =
                    Store.with_dir ~dir (fun store ->
                        E.run
                          ~config:
                            {
                              E.default_config with
                              input_size;
                              timeout;
                              summaries = true;
                              store = Some store;
                            }
                          m)
                  in
                  let cold = verify c.H.Experiment.modul in
                  let warm = verify c.H.Experiment.modul in
                  ( cold,
                    warm,
                    verify (Sum.edit_function c.H.Experiment.modul edit_fn) )
                in
                let name = p.Overify_corpus.Programs.name in
                let lvl = level.Overify_opt.Costmodel.name in
                let where = Printf.sprintf "%s at %s" name lvl in
                if warm.E.summary_computed > 0 then begin
                  incr failures;
                  Printf.eprintf
                    "bench summary: warm run of %s recomputed %d summaries\n"
                    where warm.E.summary_computed
                end;
                if cold.E.summary_computed > 0 && warm.E.summary_cached = 0
                then begin
                  incr failures;
                  Printf.eprintf
                    "bench summary: warm run of %s hit no cached summaries\n"
                    where
                end;
                if
                  edited.E.summary_computed < 1
                  || edited.E.summary_computed >= cold.E.summary_computed
                then begin
                  incr failures;
                  Printf.eprintf
                    "bench summary: edited run of %s rebuilt %d summaries \
                     (cold built %d; expected a strict non-empty subset)\n"
                    where edited.E.summary_computed cold.E.summary_computed
                end;
                if edited.E.summary_cached = 0 then begin
                  incr failures;
                  Printf.eprintf
                    "bench summary: edited run of %s hit no summaries \
                     outside the %d-function cone of %s\n"
                    where (List.length cone) edit_fn
                end;
                let win =
                  cold.E.complete && edited.E.complete
                  && edited.E.instructions < cold.E.instructions
                  && edited.E.component_solves <= cold.E.component_solves
                in
                Some (name, lvl, edit_fn, List.length cone, cold, warm,
                      edited, win))
          levels)
      programs
  in
  let rows =
    [ "program"; "level"; "edit"; "cone"; "cold built"; "edited built";
      "edited cached"; "cold insts"; "edited insts"; "cold solves";
      "edited solves"; "win" ]
    :: List.map
         (fun (name, lvl, edit_fn, cone, (cold : E.result), _,
               (edited : E.result), win) ->
           [
             name; lvl; edit_fn; string_of_int cone;
             string_of_int cold.E.summary_computed;
             string_of_int edited.E.summary_computed;
             string_of_int edited.E.summary_cached;
             H.Report.fmt_int cold.E.instructions;
             H.Report.fmt_int edited.E.instructions;
             string_of_int cold.E.component_solves;
             string_of_int edited.E.component_solves;
             string_of_bool win;
           ])
         measurements
  in
  H.Report.table rows;
  print_endline
    "(win = the one-function edit re-verified strictly fewer instructions \
     than cold, both runs complete)";
  let wins =
    List.length
      (List.filter (fun (_, _, _, _, _, _, _, w) -> w) measurements)
  in
  let win_programs =
    List.sort_uniq compare
      (List.filter_map
         (fun (name, _, _, _, _, _, _, w) -> if w then Some name else None)
         measurements)
  in
  Printf.printf
    "incremental wins: %d of %d cells (%d distinct programs)\n" wins
    (List.length measurements)
    (List.length win_programs);
  (* over the full corpus the incremental claim must hold broadly; with -p
     the single program may legitimately be wall-clock truncated *)
  if (not single) && List.length win_programs < 3 then begin
    incr failures;
    Printf.eprintf
      "bench summary: one-function edits beat cold on only %d programs \
       (expected >= 3)\n"
      (List.length win_programs)
  end;
  let json_row
      (name, lvl, edit_fn, cone, (cold : E.result), (warm : E.result),
       (edited : E.result), win) =
    Printf.sprintf
      "  {\"program\": %S, \"level\": %S, \"edit_fn\": %S, \"cone\": %d, \
       \"cold_computed\": %d, \"cold_cached\": %d, \"cold_instantiated\": \
       %d, \"cold_opaque\": %d, \"cold_instructions\": %d, \
       \"cold_solves\": %d, \"cold_complete\": %b, \"warm_computed\": %d, \
       \"warm_cached\": %d, \"warm_instructions\": %d, \"warm_solves\": \
       %d, \"edited_computed\": %d, \"edited_cached\": %d, \
       \"edited_instructions\": %d, \"edited_solves\": %d, \
       \"edited_complete\": %b, \"incremental_win\": %b}"
      name lvl edit_fn cone cold.E.summary_computed cold.E.summary_cached
      cold.E.summary_instantiated cold.E.summary_opaque cold.E.instructions
      cold.E.component_solves cold.E.complete warm.E.summary_computed
      warm.E.summary_cached warm.E.instructions warm.E.component_solves
      edited.E.summary_computed edited.E.summary_cached
      edited.E.instructions edited.E.component_solves edited.E.complete win
  in
  Out_channel.with_open_text out (fun oc ->
      Printf.fprintf oc "[\n%s\n]\n"
        (String.concat ",\n" (List.map json_row measurements)));
  Printf.printf "wrote %s\n" out;
  if !failures > 0 then exit 1

(* ---- chaos sweep: every corpus program under a battery of deterministic
   fault schedules plus a kill/resume phase; the hardening contract (zero
   crashes, two-run determinism, degraded subsets, byte-identical resume)
   is asserted cell by cell and any violation exits 1.  Rows go to
   BENCH_chaos.json. ---- *)

let run_chaos args =
  let (n, t) = parse_flags args in
  let input_size = Option.value n ~default:3 in
  let timeout = Option.value t ~default:60.0 in
  let programs = programs_flag "chaos" args in
  let out = Option.value (flag "-o" args) ~default:"BENCH_chaos.json" in
  let r = H.Chaos.run ~input_size ~timeout ~programs ~json_path:out () in
  if r.H.Chaos.failures > 0 then exit 1

(** The subcommands with their flags, in usage order. *)
let commands =
  [
    ("table1", " [-n N] [-t SECONDS]", run_table1);
    ("table2", " [-n N] [-t SECONDS]", run_table2);
    ("table3", "", run_table3);
    ("figure4", " [-n N] [-t SECONDS]", run_figure4);
    ("precision", "", run_precision);
    ("solve", " [-n N] [-t SECONDS] [-p PROGRAM] [-o FILE]", run_solve);
    ("summary", " [-n N] [-t SECONDS] [-p PROGRAM] [-o FILE]", run_summary);
    ("chaos", " [-n N] [-t SECONDS] [-p PROGRAM] [-o FILE]", run_chaos);
  ]

let () =
  match Array.to_list Sys.argv with
  | [] | [ _ ] ->
      (* no subcommand: regenerate everything at quick settings *)
      run_table1 [];
      run_table2 [ "-n"; "3" ];
      run_table3 [];
      run_precision [];
      run_figure4 [ "-n"; "5"; "-t"; "12" ]
  | _ :: cmd :: rest -> (
      match List.find_opt (fun (name, _, _) -> name = cmd) commands with
      | Some (_, _, run) -> run rest
      | None ->
          Printf.eprintf "bench: unknown subcommand %S\n" cmd;
          prerr_endline "usage: bench/main.exe";
          List.iter
            (fun (name, flags, _) ->
              Printf.eprintf "       bench/main.exe %s%s\n" name flags)
            commands;
          exit 2)
