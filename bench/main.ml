(** Benchmark harness: regenerates every table and figure of the paper's
    evaluation (see DESIGN.md §3 for the experiment index).

      dune exec bench/main.exe                 # everything, quick settings
      dune exec bench/main.exe -- table1 [-n N] [-t SECONDS]
      dune exec bench/main.exe -- table2
      dune exec bench/main.exe -- table3
      dune exec bench/main.exe -- figure4 [-n N] [-t SECONDS]
      dune exec bench/main.exe -- precision    # the 2.1 precision experiment
      dune exec bench/main.exe -- parallel [-n N] [-t SECONDS] [-j JOBS]
      dune exec bench/main.exe -- solve [-n N] [-t SECONDS] [-p PROGRAM] [-o FILE]
      dune exec bench/main.exe -- summary [-n N] [-t SECONDS] [-p PROGRAM] [-o FILE]
      dune exec bench/main.exe -- validate [-n N] [-t SECONDS]
      dune exec bench/main.exe -- profile [-n N] [-t SECONDS]
      dune exec bench/main.exe -- bechamel     # micro-benchmarks
      dune exec bench/main.exe -- diff OLD.json NEW.json [-t FRACTION]

    Absolute numbers will differ from the paper (our substrate is a
    simulator, their testbed was KLEE+STP on x86); the shapes — who wins,
    by what order of magnitude, where the trade-off flips — are the
    reproduction target.  EXPERIMENTS.md records paper-vs-measured. *)

module H = Overify_harness

let parse_flags args =
  let n = ref None and t = ref None in
  let rec go = function
    | "-n" :: v :: rest -> n := Some (int_of_string v); go rest
    | "-t" :: v :: rest -> t := Some (float_of_string v); go rest
    | _ :: rest -> go rest
    | [] -> ()
  in
  go args;
  (!n, !t)

let parse_jobs args =
  let rec go = function
    | "-j" :: v :: rest -> (match int_of_string_opt v with Some j -> Some j | None -> go rest)
    | _ :: rest -> go rest
    | [] -> None
  in
  go args

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
                 let c = H.Experiment.compile cm wc in
                 let v = H.Experiment.verify ~input_size:sz ~timeout:30.0 c in
                 Printf.sprintf "%d%s" v.Overify_symex.Engine.paths
                   (if v.Overify_symex.Engine.complete then "" else "+"))
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

(* ---- seq-vs-parallel symbolic-execution benchmark ----

   For every corpus program (compiled at OVERIFY), explore once with the
   sequential DFS searcher and once with [`Parallel jobs], report the
   wall-clock speedup, and check the determinism contract (identical paths,
   exit codes, bugs and coverage for complete runs).  Rows are also written
   to BENCH_symex_parallel.json for machine consumption. *)

let run_parallel args =
  let (n, t) = parse_flags args in
  let input_size = Option.value n ~default:4 in
  let timeout = Option.value t ~default:30.0 in
  let jobs = Option.value (parse_jobs args) ~default:4 in
  H.Report.section
    (Printf.sprintf
       "Symbolic execution: sequential vs %d worker domains (n=%d bytes)" jobs
       input_size);
  let level = Overify_opt.Costmodel.overify in
  let measurements =
    List.map
      (fun (p : Overify_corpus.Programs.t) ->
        let c = H.Experiment.compile level p in
        let m = H.Experiment.measure_parallel ~input_size ~timeout ~jobs c in
        (p.Overify_corpus.Programs.name, m))
      Overify_corpus.Programs.programs
  in
  let rows =
    [
      "program"; "paths"; "t_seq (ms)"; "t_par (ms)"; "speedup";
      "deterministic"; "complete";
    ]
    :: List.map
         (fun (name, (m : H.Experiment.parallel_measurement)) ->
           [
             name;
             string_of_int m.H.Experiment.seq.Overify_symex.Engine.paths;
             H.Report.ms m.H.Experiment.seq.Overify_symex.Engine.time;
             H.Report.ms m.H.Experiment.par.Overify_symex.Engine.time;
             Printf.sprintf "%.2fx" m.H.Experiment.speedup;
             string_of_bool m.H.Experiment.deterministic;
             string_of_bool
               (m.H.Experiment.seq.Overify_symex.Engine.complete
               && m.H.Experiment.par.Overify_symex.Engine.complete);
           ])
         measurements
  in
  H.Report.table rows;
  Printf.printf
    "(speedup = t_seq / t_par at %d domains; this host exposes %d core(s))\n"
    jobs (Domain.recommended_domain_count ());
  let json_row (name, (m : H.Experiment.parallel_measurement)) =
    Printf.sprintf
      "  {\"program\": %S, \"jobs\": %d, \"t_seq_s\": %.6f, \"t_par_s\": \
       %.6f, \"speedup\": %.3f, \"paths\": %d, \"deterministic\": %b, \
       \"complete\": %b}"
      name m.H.Experiment.jobs
      m.H.Experiment.seq.Overify_symex.Engine.time
      m.H.Experiment.par.Overify_symex.Engine.time m.H.Experiment.speedup
      m.H.Experiment.seq.Overify_symex.Engine.paths
      m.H.Experiment.deterministic
      (m.H.Experiment.seq.Overify_symex.Engine.complete
      && m.H.Experiment.par.Overify_symex.Engine.complete)
  in
  let path = "BENCH_symex_parallel.json" in
  Out_channel.with_open_text path (fun oc ->
      Printf.fprintf oc "[\n%s\n]\n"
        (String.concat ",\n" (List.map json_row measurements)));
  Printf.printf "wrote %s\n" path

(* ---- verification-profile sweep: profile every corpus program at -O0 and
   -OVERIFY with cost attribution on and report each program's hottest
   function at both levels — the per-function view of Table 1's speedups.
   Full reports go to BENCH_profile.json. ---- *)

let run_profile args =
  let (n, t) = parse_flags args in
  let input_size = Option.value n ~default:3 in
  let timeout = Option.value t ~default:30.0 in
  H.Report.section
    (Printf.sprintf
       "Verification profile: hottest function at -O0 vs -OVERIFY (n=%d \
        bytes)" input_size);
  let levels = [ Overify_opt.Costmodel.o0; Overify_opt.Costmodel.overify ] in
  let profiles =
    List.map
      (fun (p : Overify_corpus.Programs.t) ->
        List.map
          (fun level ->
            H.Profile.profile ~program:p.Overify_corpus.Programs.name ~level
              ~input_size ~timeout p.Overify_corpus.Programs.source)
          levels)
      Overify_corpus.Programs.programs
  in
  let hot (pr : H.Profile.t) =
    match pr.H.Profile.funcs with
    | f :: _ ->
        Printf.sprintf "%s (%d queries, %s insts)" f.H.Profile.fr_fn
          f.H.Profile.fr_cost.Overify_obs.Obs.Counters.queries
          (H.Report.fmt_int
             f.H.Profile.fr_cost.Overify_obs.Obs.Counters.instructions)
    | [] -> "-"
  in
  let rows =
    [ "program"; "hottest @ -O0"; "hottest @ -OVERIFY"; "solver -O0 (ms)";
      "solver -OVERIFY (ms)" ]
    :: List.map
         (fun prs ->
           match prs with
           | [ p0; pv ] ->
               [
                 p0.H.Profile.program;
                 hot p0;
                 hot pv;
                 H.Report.ms p0.H.Profile.result.Overify_symex.Engine.solver_time;
                 H.Report.ms pv.H.Profile.result.Overify_symex.Engine.solver_time;
               ]
           | _ -> assert false)
         profiles
  in
  H.Report.table rows;
  let path = "BENCH_profile.json" in
  Out_channel.with_open_text path (fun oc ->
      Printf.fprintf oc "[\n%s\n]\n"
        (String.concat ",\n"
           (List.map (fun p -> H.Profile.to_json p) (List.concat profiles))));
  Printf.printf "wrote %s (full per-function/per-block reports)\n" path

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
  let flag name =
    let rec go = function
      | f :: v :: _ when f = name -> Some v
      | _ :: rest -> go rest
      | [] -> None
    in
    go args
  in
  let only = flag "-p" in
  let out = Option.value (flag "-o") ~default:"BENCH_solver.json" in
  let programs =
    match only with
    | None -> Overify_corpus.Programs.programs
    | Some name -> (
        match Overify_corpus.Programs.find name with
        | Some p -> [ p ]
        | None ->
            Printf.eprintf "bench solve: unknown corpus program %S\n" name;
            exit 2)
  in
  let module E = Overify_symex.Engine in
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
            let off =
              H.Experiment.verify ~input_size ~timeout
                ~solver_cache:false c
            in
            let on =
              H.Experiment.verify ~input_size ~timeout
                ~solver_cache:true c
            in
            (* byte-identical verdicts are only promised for complete runs:
               a wall-clock timeout truncates the faster (cached) run at a
               different point than the slower one *)
            let comparable = off.E.complete && on.E.complete in
            let agree =
              (not comparable)
              || off.E.paths = on.E.paths
                 && off.E.exit_codes = on.E.exit_codes
                 && off.E.bugs = on.E.bugs
                 && off.E.blocks_covered = on.E.blocks_covered
            in
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
            if hits = 0 && on.E.queries > 0 && only <> None then begin
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
  (* persistent-store round trip: the same exploration twice against one
     cache directory — the second run answers from the store *)
  let tmp = Filename.temp_file "overify_bench_store" "" in
  let dir = tmp ^ ".d" in
  let store_demo =
    match programs with
    | [] -> None
    | p :: _ ->
        let c = H.Experiment.compile Overify_opt.Costmodel.overify p in
        let cold =
          H.Experiment.verify ~input_size ~timeout ~solver_cache:true
            ~cache_dir:dir c
        in
        let warm =
          H.Experiment.verify ~input_size ~timeout ~solver_cache:true
            ~cache_dir:dir c
        in
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
  (if Sys.file_exists dir && Sys.is_directory dir then
     Array.iter
       (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
       (Sys.readdir dir));
  (try Sys.rmdir dir with Sys_error _ -> ());
  (try Sys.remove tmp with Sys_error _ -> ());
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
  let flag name =
    let rec go = function
      | f :: v :: _ when f = name -> Some v
      | _ :: rest -> go rest
      | [] -> None
    in
    go args
  in
  let only = flag "-p" in
  let out = Option.value (flag "-o") ~default:"BENCH_summary.json" in
  let programs =
    match only with
    | None -> Overify_corpus.Programs.programs
    | Some name -> (
        match Overify_corpus.Programs.find name with
        | Some p -> [ p ]
        | None ->
            Printf.eprintf "bench summary: unknown corpus program %S\n" name;
            exit 2)
  in
  let module E = Overify_symex.Engine in
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
                let tmp = Filename.temp_file "overify_bench_summary" "" in
                let dir = tmp ^ ".d" in
                let verify m =
                  H.Experiment.verify ~input_size ~timeout ~summaries:true
                    ~cache_dir:dir { c with H.Experiment.modul = m }
                in
                let cold = verify c.H.Experiment.modul in
                let warm = verify c.H.Experiment.modul in
                let edited =
                  verify (Sum.edit_function c.H.Experiment.modul edit_fn)
                in
                (if Sys.file_exists dir && Sys.is_directory dir then
                   Array.iter
                     (fun f ->
                       try Sys.remove (Filename.concat dir f)
                       with Sys_error _ -> ())
                     (Sys.readdir dir));
                (try Sys.rmdir dir with Sys_error _ -> ());
                (try Sys.remove tmp with Sys_error _ -> ());
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
  if only = None && List.length win_programs < 3 then begin
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
  let flag name =
    let rec go = function
      | f :: v :: _ when f = name -> Some v
      | _ :: rest -> go rest
      | [] -> None
    in
    go args
  in
  let programs =
    match flag "-p" with
    | None -> Overify_corpus.Programs.programs
    | Some name -> (
        match Overify_corpus.Programs.find name with
        | Some p -> [ p ]
        | None ->
            Printf.eprintf "bench chaos: unknown corpus program %S\n" name;
            exit 2)
  in
  let out = Option.value (flag "-o") ~default:"BENCH_chaos.json" in
  let r = H.Chaos.run ~input_size ~timeout ~programs ~json_path:out () in
  if r.H.Chaos.failures > 0 then exit 1

(* ---- serve: throughput/latency of the verification daemon under a
   concurrent synthetic trace (programs x levels x budgets, duplicates,
   malformed inputs).  The health contract — zero daemon crashes, every
   entry answered, dedup hits > 0 — is asserted and any violation exits
   1.  The summary goes to BENCH_serve.json. ---- *)

let run_serve args =
  let flag name =
    let rec go = function
      | f :: v :: _ when f = name -> Some v
      | _ :: rest -> go rest
      | [] -> None
    in
    go args
  in
  let n =
    Option.value (Option.map int_of_string (flag "-n")) ~default:48
  in
  let clients =
    Option.value (Option.map int_of_string (flag "-c")) ~default:4
  in
  let out = Option.value (flag "-o") ~default:"BENCH_serve.json" in
  Printf.printf
    "=== Serve: %d-entry synthetic trace over %d concurrent clients ===\n\n"
    n clients;
  let (s, healthy) = H.Serve.run ~n ~clients () in
  Printf.printf
    "requests=%d ok=%d errors=%d transport_failures=%d\n"
    s.H.Serve.s_requests s.H.Serve.s_ok s.H.Serve.s_errors
    s.H.Serve.s_transport_failures;
  Printf.printf
    "executed=%d dedup_hits=%d (inflight=%d recent=%d) malformed=%d\n"
    (H.Serve.stat s "executed")
    (H.Serve.stat s "dedup_hits")
    (H.Serve.stat s "dedup_inflight")
    (H.Serve.stat s "dedup_recent")
    (H.Serve.stat s "malformed");
  Printf.printf
    "throughput=%.1f req/s latency p50=%.1fms p95=%.1fms p99=%.1fms max=%.1fms\n"
    s.H.Serve.s_throughput_rps s.H.Serve.s_p50_ms s.H.Serve.s_p95_ms
    s.H.Serve.s_p99_ms s.H.Serve.s_max_ms;
  Out_channel.with_open_text out (fun oc ->
      Printf.fprintf oc "%s\n" (H.Serve.summary_to_json s));
  Printf.printf "wrote %s\n" out;
  if healthy then
    print_endline
      "serve trace passed: daemon survived the whole trace, every entry \
       answered, dedup hits > 0"
  else begin
    print_endline "serve trace FAILED the health contract";
    exit 1
  end

(* ---- overload: the daemon under deliberate overload — a stall@1-wedged
   executor, a full capacity-1 queue, a distinct-fingerprint flood, then
   watchdog recovery, an accepted stream, a slowloris and an idle probe.
   The contract — zero transport failures, every request answered or
   shed, sheds reconciling exactly with the daemon's own counter, the
   watchdog firing exactly once — is asserted and any violation exits 1.
   The summary (shed rate, accepted p50/p95/p99) goes to
   BENCH_overload.json. ---- *)

let run_overload args =
  let flag name =
    let rec go = function
      | f :: v :: _ when f = name -> Some v
      | _ :: rest -> go rest
      | [] -> None
    in
    go args
  in
  let probes =
    Option.value (Option.map int_of_string (flag "-n")) ~default:12
  in
  let accepted =
    Option.value (Option.map int_of_string (flag "-a")) ~default:16
  in
  let out = Option.value (flag "-o") ~default:"BENCH_overload.json" in
  Printf.printf
    "=== Overload: %d-probe flood against a wedged capacity-1 daemon ===\n\n"
    probes;
  let (o, healthy) = H.Serve.run_overload ~probes ~accepted () in
  Printf.printf
    "requests=%d ok=%d overloaded=%d deadline_exceeded=%d other_errors=%d \
     transport_failures=%d\n"
    o.H.Serve.o_requests o.H.Serve.o_ok o.H.Serve.o_overloaded
    o.H.Serve.o_deadline o.H.Serve.o_other_errors
    o.H.Serve.o_transport_failures;
  Printf.printf
    "shed_rate=%.3f retry_hint_min=%dms watchdog_reason=%b \
     slowloris_answered=%b idle_reaped=%b\n"
    (float_of_int o.H.Serve.o_overloaded
    /. float_of_int (max 1 o.H.Serve.o_requests))
    o.H.Serve.o_hint_ms_min o.H.Serve.o_watchdog_reason
    o.H.Serve.o_slowloris_answered o.H.Serve.o_idle_reaped;
  let lat = o.H.Serve.o_accepted_lat in
  let pct q =
    let n = Array.length lat in
    if n = 0 then 0.0
    else lat.(min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1))
  in
  Printf.printf "accepted latency p50=%.1fms p95=%.1fms p99=%.1fms\n"
    (pct 0.50) (pct 0.95) (pct 0.99);
  Out_channel.with_open_text out (fun oc ->
      Printf.fprintf oc "%s\n" (H.Serve.overload_to_json o));
  Printf.printf "wrote %s\n" out;
  if healthy then
    print_endline
      "overload schedule passed: every request answered or shed, shed \
       accounting exact, watchdog recovered the wedged executor, zero \
       transport failures"
  else begin
    print_endline "overload schedule FAILED the health contract";
    exit 1
  end

(* ---- translation-validated corpus sweep: every pass application on every
   corpus program at every level is checked with the symbolic engine; the
   expected result is zero counterexamples (exit 1 otherwise) ---- *)

let run_validate args =
  let (n, t) = parse_flags args in
  let b = Overify_tv.Tv.default_budget in
  let budget =
    {
      b with
      Overify_tv.Tv.input_size = Option.value n ~default:b.Overify_tv.Tv.input_size;
      timeout = Option.value t ~default:b.Overify_tv.Tv.timeout;
    }
  in
  let cex = H.Validation.run ~budget () in
  if cex > 0 then exit 1

(* ---- Bechamel micro-benchmarks: one Test.make per table/figure driver,
   at miniature settings so each iteration is sub-second ---- *)

let bechamel () =
  let open Bechamel in
  let wc =
    match H.Table1.wc () with
    | Ok p -> p
    | Error msg -> failwith ("bechamel needs the wc program: " ^ msg)
  in
  let compile_overify () =
    ignore (H.Experiment.compile Overify_opt.Costmodel.overify wc)
  in
  let table1_tiny () =
    let c = H.Experiment.compile Overify_opt.Costmodel.overify wc in
    ignore (H.Experiment.verify ~input_size:2 ~timeout:5.0 c)
  in
  let table2_cell () =
    let c = H.Experiment.compile Overify_opt.Costmodel.o3 wc in
    ignore (H.Experiment.measure_cycles ~runs:2 ~size:8 c)
  in
  let table3_cell () =
    ignore (H.Experiment.compile Overify_opt.Costmodel.o3 wc)
  in
  let figure4_cell () =
    let p = Option.get (Overify_corpus.Programs.find "tr") in
    let c = H.Experiment.compile Overify_opt.Costmodel.overify p in
    ignore (H.Experiment.verify ~input_size:2 ~timeout:5.0 c)
  in
  let tests =
    [
      Test.make ~name:"compile-overify-wc" (Staged.stage compile_overify);
      Test.make ~name:"table1-verify-wc-n2" (Staged.stage table1_tiny);
      Test.make ~name:"table2-exec-cycles" (Staged.stage table2_cell);
      Test.make ~name:"table3-compile-stats" (Staged.stage table3_cell);
      Test.make ~name:"figure4-verify-tr-n2" (Staged.stage figure4_cell);
    ]
  in
  let benchmark test =
    let instances = Toolkit.Instance.[ monotonic_clock ] in
    let cfg =
      Benchmark.cfg ~limit:20 ~quota:(Time.second 1.0) ~kde:(Some 10) ()
    in
    Benchmark.all cfg instances test
  in
  let analyze results =
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
    in
    Analyze.all ols Toolkit.Instance.monotonic_clock results
  in
  List.iter
    (fun test ->
      let results = benchmark test in
      let a = analyze results in
      Hashtbl.iter
        (fun name ols ->
          match Bechamel.Analyze.OLS.estimates ols with
          | Some [ est ] -> Printf.printf "%-28s %12.0f ns/run\n%!" name est
          | _ -> Printf.printf "%-28s (no estimate)\n%!" name)
        a)
    tests

(* ---- bench diff: compare two BENCH_*.json files ---- *)

module Bjson = Overify.Serve_json

(** Flatten a BENCH json document to (path, number) cells.  Array
    elements that are objects are keyed by their string-valued fields
    (sorted), so rows match across reordering; other elements by index. *)
let bench_cells (j : Bjson.t) : (string * float) list =
  let out = ref [] in
  let ident kvs =
    match
      List.filter_map
        (fun (k, v) ->
          match v with Bjson.Str s -> Some (k ^ "=" ^ s) | _ -> None)
        kvs
    with
    | [] -> None
    | l -> Some (String.concat "," (List.sort compare l))
  in
  let rec go prefix = function
    | Bjson.Num n -> out := (prefix, n) :: !out
    | Bjson.Obj kvs ->
        List.iter
          (fun (k, v) ->
            go (if prefix = "" then k else prefix ^ "." ^ k) v)
          kvs
    | Bjson.Arr els ->
        List.iteri
          (fun i el ->
            let key =
              match el with
              | Bjson.Obj kvs -> (
                  match ident kvs with
                  | Some id -> "[" ^ id ^ "]"
                  | None -> Printf.sprintf "[%d]" i)
              | _ -> Printf.sprintf "[%d]" i
            in
            go (prefix ^ key) el)
          els
    | _ -> ()
  in
  go "" j;
  List.rev !out

(** Fields where a bigger number means a slower/costlier run — the ones
    a regression gate cares about.  Verdict counts (paths, bugs) and
    hit counters legitimately move in either direction. *)
let cost_cell path =
  let seg =
    match String.rindex_opt path '.' with
    | Some i -> String.sub path (i + 1) (String.length path - i - 1)
    | None -> path
  in
  let contains sub =
    let n = String.length sub and m = String.length seg in
    let rec at i = i + n <= m && (String.sub seg i n = sub || at (i + 1)) in
    n <= m && at 0
  in
  List.exists contains
    [ "time"; "ms"; "instructions"; "insts"; "forks"; "queries"; "solves";
      "cycles" ]

let run_diff args =
  let threshold = ref 0.25 in
  let files = ref [] in
  let rec go = function
    | "-t" :: v :: rest ->
        threshold := float_of_string v;
        go rest
    | a :: rest ->
        files := a :: !files;
        go rest
    | [] -> ()
  in
  go args;
  match List.rev !files with
  | [ old_path; new_path ] -> (
      let read path =
        match Bjson.parse (In_channel.with_open_text path In_channel.input_all) with
        | Ok j -> j
        | Error msg ->
            Printf.eprintf "bench diff: %s: %s\n" path msg;
            exit 2
      in
      let old_cells = Hashtbl.create 256 in
      List.iter
        (fun (p, v) -> Hashtbl.replace old_cells p v)
        (bench_cells (read old_path));
      let thr = !threshold in
      let compared = ref 0 and improved = ref 0 in
      let regressions = ref [] in
      List.iter
        (fun (path, nv) ->
          match Hashtbl.find_opt old_cells path with
          | None -> ()
          | Some ov ->
              incr compared;
              if cost_cell path then
                (* both a relative and a small absolute bar, so float
                   jitter on near-zero timings does not trip the gate *)
                if nv > (ov *. (1.0 +. thr)) +. 1e-9 && nv -. ov > 1e-3 then
                  regressions := (path, ov, nv) :: !regressions
                else if ov > (nv *. (1.0 +. thr)) +. 1e-9 && ov -. nv > 1e-3
                then incr improved)
        (bench_cells (read new_path));
      List.iter
        (fun (path, ov, nv) ->
          Printf.printf "REGRESSION %s: %g -> %g (%+.1f%%)\n" path ov nv
            ((nv -. ov) /. (if ov = 0.0 then 1.0 else ov) *. 100.0))
        (List.rev !regressions);
      Printf.printf
        "bench diff: %d cells compared, %d regressions, %d improvements \
         (threshold +%.0f%%)\n"
        !compared
        (List.length !regressions)
        !improved (thr *. 100.0);
      if !regressions <> [] then exit 1)
  | _ ->
      prerr_endline "usage: bench diff OLD.json NEW.json [-t FRACTION]";
      exit 2

let () =
  let args = Array.to_list Sys.argv in
  match args with
  | _ :: "table1" :: rest -> run_table1 rest
  | _ :: "table2" :: rest -> run_table2 rest
  | _ :: "table3" :: rest -> run_table3 rest
  | _ :: "figure4" :: rest -> run_figure4 rest
  | _ :: "precision" :: rest -> run_precision rest
  | _ :: "parallel" :: rest -> run_parallel rest
  | _ :: "solve" :: rest -> run_solve rest
  | _ :: "summary" :: rest -> run_summary rest
  | _ :: "chaos" :: rest -> run_chaos rest
  | _ :: "serve" :: rest -> run_serve rest
  | _ :: "overload" :: rest -> run_overload rest
  | _ :: "validate" :: rest -> run_validate rest
  | _ :: "profile" :: rest -> run_profile rest
  | _ :: "diff" :: rest -> run_diff rest
  | _ :: "bechamel" :: _ -> bechamel ()
  | _ ->
      (* default: regenerate everything at quick settings *)
      run_table1 [];
      run_table2 [ "-n"; "3" ];
      run_table3 [];
      run_precision [];
      run_figure4 [ "-n"; "5"; "-t"; "12" ]
