(** The [overify] command-line tool: compile MiniC at a chosen level, dump
    IR, run the program concretely, or verify it symbolically — the build
    chain of the paper's Figure 3 in one binary. *)

open Cmdliner

module O = Overify

let level_arg =
  let parse s =
    match O.Costmodel.of_name s with
    | Some cm -> Ok cm
    | None -> Error (`Msg (Printf.sprintf "unknown level %s (use O0/O2/O3/OVERIFY)" s))
  in
  let print fmt (cm : O.Costmodel.t) =
    Format.pp_print_string fmt cm.O.Costmodel.name
  in
  Arg.conv (parse, print)

let level =
  Arg.(
    value
    & opt level_arg O.Costmodel.overify
    & info [ "O"; "level" ] ~docv:"LEVEL"
        ~doc:"Optimization level: O0, O2, O3 or OVERIFY.")

let no_libc =
  Arg.(
    value & flag
    & info [ "no-libc" ] ~doc:"Do not link the MiniC standard library.")

let source_file =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"FILE"
        ~doc:"MiniC source file, or the name of a corpus program \
              (prefix with 'corpus:').")

let read_source path =
  if String.length path > 7 && String.sub path 0 7 = "corpus:" then
    let name = String.sub path 7 (String.length path - 7) in
    match O.Programs.find name with
    | Some p -> p.O.Programs.source
    | None ->
        Printf.eprintf "unknown corpus program %s; available: %s\n" name
          (String.concat ", " O.Programs.names);
        exit 2
  else In_channel.with_open_text path In_channel.input_all

(** Run [f]; a MiniC compile error is an input error, reported like an
    unknown corpus program: [FILE: message] on stderr, exit 2. *)
let or_input_error path f =
  try f ()
  with O.Frontend.Compile_error msg ->
    Printf.eprintf "%s: %s\n" path msg;
    exit 2

(** Parse [path] linked with [level]'s libc (unless [no_libc]). *)
let frontend level no_libc path =
  or_input_error path (fun () ->
      O.Vclib.frontend ~link_libc:(not no_libc) level (read_source path))

let compile_to_module level no_libc path =
  (O.Pipeline.optimize level (frontend level no_libc path)).O.Pipeline.modul

let program_name path =
  if String.length path > 7 && String.sub path 0 7 = "corpus:" then
    String.sub path 7 (String.length path - 7)
  else Filename.remove_extension (Filename.basename path)

(* ---- structured tracing (any subcommand) ---- *)

let trace_arg =
  Arg.(
    value & opt string ""
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record a Chrome trace_event timeline of the whole invocation \
           (solver checks, pass applications, engine runs, TV obligations) \
           and write it to $(docv) on exit.  Load the file in \
           chrome://tracing or Perfetto; a .jsonl suffix selects one JSON \
           event per line.")

(** Run [f] with the trace sink collecting; write the trace on the way out
    (even if [f] raises). *)
let with_trace trace f =
  if trace = "" then f ()
  else begin
    O.Obs.Trace.clear ();
    O.Obs.Trace.start ();
    Fun.protect
      ~finally:(fun () ->
        O.Obs.Trace.stop ();
        O.Obs.Trace.write trace;
        Printf.eprintf "; trace written to %s (load in chrome://tracing)\n"
          trace)
      f
  end

(* ---- compile subcommand ---- *)

let compile_cmd =
  let run level no_libc path stats trace =
    with_trace trace @@ fun () ->
    let r = O.Pipeline.optimize level (frontend level no_libc path) in
    print_string (O.Printer.modul_to_string r.O.Pipeline.modul);
    if stats then
      Format.printf "@.; transformations: %a@." Overify_opt.Stats.pp
        r.O.Pipeline.stats;
    0
  in
  let stats =
    Arg.(value & flag & info [ "stats" ] ~doc:"Print transformation counters.")
  in
  Cmd.v
    (Cmd.info "compile" ~doc:"Compile MiniC and print the IR.")
    Term.(const run $ level $ no_libc $ source_file $ stats $ trace_arg)

(* ---- run subcommand ---- *)

let run_cmd =
  let input =
    Arg.(
      value & opt string ""
      & info [ "input"; "i" ] ~docv:"BYTES" ~doc:"Program input bytes.")
  in
  let run level no_libc path input trace =
    with_trace trace @@ fun () ->
    let m = compile_to_module level no_libc path in
    let r = O.Interp.run m ~input in
    print_string r.O.Interp.output;
    Printf.eprintf "exit=%Ld cycles=%d instructions=%d%s\n" r.O.Interp.exit_code
      r.O.Interp.cycles r.O.Interp.insts
      (match r.O.Interp.trap with
      | None -> ""
      | Some t -> " TRAP: " ^ O.Interp.string_of_trap t);
    Int64.to_int r.O.Interp.exit_code land 0xff
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Compile and execute concretely (prints t_run data).")
    Term.(const run $ level $ no_libc $ source_file $ input $ trace_arg)

(* ---- verify subcommand ---- *)

let cache_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "cache-dir" ] ~docv:"DIR"
        ~doc:
          "Persist the solver's canonical query cache in $(docv) and reuse \
           it across runs (including at other -O levels).  Results are \
           byte-identical with or without the cache; only the number of \
           raw SAT solves changes.")

let faults_conv =
  let parse s =
    match O.Fault.parse s with
    | Ok f -> Ok f
    | Error msg -> Error (`Msg msg)
  in
  let print fmt f = Format.pp_print_string fmt (O.Fault.spec f) in
  Arg.conv (parse, print)

let faults_arg =
  Arg.(
    value
    & opt (some faults_conv) None
    & info [ "faults" ] ~docv:"SPEC"
        ~doc:
          "Inject deterministic faults (chaos testing): comma-separated \
           site@N entries — timeout@N (N-th solver query times out), \
           stall@N (N-th solver query blocks until its request is \
           cancelled), corrupt@N / partial@N (N-th solver-store save is \
           corrupted / truncated), alloc@N (N-th allocation exhausts its \
           budget), crash@N (N-th executor step raises a contained worker \
           crash), kill@N (simulated SIGKILL — only a checkpoint survives) \
           — or seed:S[:K] for K pseudo-random entries.")

let summaries_arg =
  Arg.(
    value & flag
    & info [ "summaries" ]
        ~doc:
          "Compositional mode: compute (or load from $(b,--cache-dir)) \
           per-function symbolic summaries bottom-up over the call graph \
           and instantiate them at call sites instead of inlining.  \
           Summaries are keyed by a structural fingerprint of the function \
           body plus its callees', so editing one function re-verifies \
           only its callgraph cone.  Verdicts are identical to inline \
           exploration; only the effort counters change.  Defaults to \
           $(b,OVERIFY_SUMMARIES) when set.")

(* [--jobs] and [--size] take what a served request may ask for *)
let int_in_conv lo hi =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= lo && n <= hi -> Ok n
    | _ -> Error (`Msg (Printf.sprintf "%S is not an integer in [%d, %d]" s lo hi))
  in
  Arg.conv (parse, Format.pp_print_int)

let jobs_conv = int_in_conv 1 O.Serve_protocol.max_jobs
let size_conv = int_in_conv 0 O.Serve_protocol.max_input_size

(** The engine configuration [verify] and [profile] share. *)
let engine_config =
  let size =
    Arg.(
      value & opt size_conv 4
      & info [ "size"; "n" ] ~docv:"N"
          ~doc:
            (Printf.sprintf "Number of symbolic input bytes (0 to %d)."
               O.Serve_protocol.max_input_size))
  in
  let timeout =
    Arg.(
      value & opt float 60.0
      & info [ "timeout"; "t" ] ~docv:"SECONDS" ~doc:"Verification budget.")
  in
  let jobs =
    Arg.(
      value & opt jobs_conv 1
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:
            (Printf.sprintf
               "Explore paths on $(docv) parallel worker domains (1 to %d). \
                Results are identical to the sequential searcher for \
                complete runs."
               O.Serve_protocol.max_jobs))
  in
  let config input_size timeout jobs summaries =
    {
      O.Engine.default_config with
      O.Engine.input_size;
      timeout;
      searcher = `Parallel jobs;
      summaries = summaries || O.Engine.default_config.O.Engine.summaries;
    }
  in
  Term.(const config $ size $ timeout $ jobs $ summaries_arg)

(** Run [f] on [config] with the [--cache-dir] store attached, if one was
    given; the store is saved when [f] returns. *)
let with_cache_dir ?faults cache_dir config f =
  match cache_dir with
  | None -> f config
  | Some dir ->
      O.Store.with_dir ?faults ~dir (fun store ->
          f { config with O.Engine.store = Some store })

let verify_cmd =
  let tests_flag =
    Arg.(
      value & flag
      & info [ "tests" ]
          ~doc:"Print a generated test input (and its exit code) per path, \
                like KLEE's ktest files.")
  in
  let checkpoint_dir_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "checkpoint-dir" ] ~docv:"DIR"
          ~doc:
            "Write periodic atomic snapshots of the exploration frontier to \
             $(docv) (sequential searcher), so a killed run can be continued \
             with $(b,--resume).")
  in
  let checkpoint_every_arg =
    Arg.(
      value & opt int 64
      & info [ "checkpoint-every" ] ~docv:"N"
          ~doc:"Snapshot every $(docv) completed paths (default 64).")
  in
  let resume_arg =
    Arg.(
      value & flag
      & info [ "resume" ]
          ~doc:
            "Continue from the snapshot in $(b,--checkpoint-dir) when one \
             exists and matches this program and configuration; the resumed \
             run's verdicts equal an uninterrupted run's.")
  in
  let json_arg =
    Arg.(
      value
      & opt ~vopt:(Some "-") (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:
            "Emit the machine-readable result — including the structured \
             $(i,degradations) and $(i,faults_injected) blocks — to stdout, \
             or to $(docv) if given.")
  in
  let deterministic_arg =
    Arg.(
      value & flag
      & info [ "deterministic" ]
          ~doc:
            "Zero the wall-clock and cache-temperature fields of the \
             $(b,--json) result, so identical programs produce identical \
             bytes — e.g. for diffing a one-shot run against the same \
             request answered by a warm $(b,overify serve) daemon.")
  in
  let run level no_libc path config cache_dir tests faults checkpoint_dir
      checkpoint_every resume json deterministic trace =
    with_trace trace @@ fun () ->
    let m = compile_to_module level no_libc path in
    let config =
      { config with O.Engine.faults; checkpoint_dir; checkpoint_every; resume }
    in
    let r =
      try
        with_cache_dir ?faults cache_dir config (fun config ->
            O.Engine.run ~config m)
      with O.Fault.Killed msg ->
        (* simulated process death: mirror SIGKILL's exit status; the
           checkpoint (if any) stays behind for --resume *)
        Printf.eprintf "killed: %s%s\n" msg
          (match checkpoint_dir with
          | Some d -> Printf.sprintf " (resume with --checkpoint-dir %s --resume)" d
          | None -> " (no --checkpoint-dir; progress lost)");
        exit 137
    in
    (match json with
    | Some "-" -> print_endline (O.Engine.result_to_json ~deterministic r)
    | Some file ->
        Out_channel.with_open_text file (fun oc ->
            output_string oc (O.Engine.result_to_json ~deterministic r);
            output_char oc '\n');
        Printf.eprintf "; result written to %s\n" file
    | None -> ());
    Printf.printf
      "paths=%d instructions=%d queries=%d cache_hits=%d solver=%.1fms \
       total=%.1fms coverage=%d/%d blocks jobs=%d complete=%b%s\n"
      r.O.Engine.paths r.O.Engine.instructions r.O.Engine.queries
      r.O.Engine.cache_hits
      (r.O.Engine.solver_time *. 1000.)
      (r.O.Engine.time *. 1000.)
      r.O.Engine.blocks_covered r.O.Engine.blocks_total r.O.Engine.jobs
      r.O.Engine.complete
      (if r.O.Engine.resumed then " resumed=true" else "");
    Printf.printf "solver: components=%d solves=%d hits: canon=%d store=%d\n"
      r.O.Engine.components r.O.Engine.component_solves r.O.Engine.hits_canon
      r.O.Engine.hits_store;
    if
      r.O.Engine.summary_instantiated + r.O.Engine.summary_opaque
      + r.O.Engine.summary_computed + r.O.Engine.summary_cached > 0
    then
      Printf.printf
        "summaries: instantiated=%d opaque=%d computed=%d cached=%d\n"
        r.O.Engine.summary_instantiated r.O.Engine.summary_opaque
        r.O.Engine.summary_computed r.O.Engine.summary_cached;
    List.iter
      (fun (d : O.Engine.degradation) ->
        Printf.printf "degraded: %s paths=%d%s\n" d.O.Engine.d_kind
          d.O.Engine.d_paths
          (if d.O.Engine.d_where = "" then ""
           else " (" ^ d.O.Engine.d_where ^ ")"))
      r.O.Engine.degradations;
    (let fired =
       List.filter (fun (_, n) -> n > 0) r.O.Engine.faults_injected
     in
     if fired <> [] then
       Printf.printf "faults injected: %s\n"
         (String.concat " "
            (List.map (fun (k, n) -> Printf.sprintf "%s=%d" k n) fired)));
    if tests then
      List.iteri
        (fun i (input, code) ->
          Printf.printf "test %04d: input=%S expected_exit=%Ld\n" i input code)
        r.O.Engine.exit_codes;
    List.iter
      (fun (b : O.Engine.bug) ->
        Printf.printf "BUG: %s in %s, input=%S\n" b.O.Engine.kind
          b.O.Engine.at_function b.O.Engine.input)
      r.O.Engine.bugs;
    if r.O.Engine.bugs = [] then 0 else 1
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:"Compile and symbolically execute all paths (KLEE-style).")
    Term.(const run $ level $ no_libc $ source_file $ engine_config
          $ cache_dir_arg $ tests_flag $ faults_arg $ checkpoint_dir_arg
          $ checkpoint_every_arg $ resume_arg $ json_arg $ deterministic_arg
          $ trace_arg)

(* ---- analyze subcommand ---- *)

let analyze_cmd =
  let run level no_libc path =
    let m = compile_to_module level no_libc path in
    let c = O.Precision.of_module m in
    Printf.printf
      "interval analysis over functions reachable from main (%s):\n"
      level.O.Costmodel.name;
    Printf.printf "  branches decided statically : %d / %d\n"
      c.O.Precision.branches_decided c.O.Precision.branches;
    Printf.printf "  accesses proven in bounds   : %d / %d\n"
      c.O.Precision.geps_proved c.O.Precision.geps;
    Printf.printf "  registers with tight ranges : %d / %d\n"
      c.O.Precision.regs_bounded c.O.Precision.regs;
    (* a few sample derived facts from main *)
    (match O.Ir.find_func m "main" with
    | Some main ->
        let r = O.Absint.analyze main in
        let shown = ref 0 in
        print_endline "  sample facts in main:";
        O.Absint.IMap.iter
          (fun reg range ->
            match range with
            | O.Interval.Range (lo, hi)
              when !shown < 10 && lo <> Int64.min_int && hi <> Int64.max_int ->
                incr shown;
                Printf.printf "    %%%d : %s\n" reg (O.Interval.to_string range)
            | _ -> ())
          r.O.Absint.reg_out
    | None -> ());
    0
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Run the coarse interval analysis (the paper's 2.1 'simple \
          verification tool') and report what it can prove.")
    Term.(const run $ level $ no_libc $ source_file)

(* ---- tv subcommand ---- *)

let tv_cmd =
  let size =
    Arg.(
      value & opt size_conv 3
      & info [ "size"; "n" ] ~docv:"N"
          ~doc:
            (Printf.sprintf
               "Symbolic input bytes per pass-application check (0 to %d)."
               O.Serve_protocol.max_input_size))
  in
  let timeout =
    Arg.(
      value & opt float 3.0
      & info [ "timeout"; "t" ] ~docv:"SECONDS"
          ~doc:"Symbolic budget per pass-application check.")
  in
  let all_levels =
    Arg.(
      value & flag
      & info [ "all-levels" ]
          ~doc:"Validate at every level (O0, O2, O3, OVERIFY), not just -O.")
  in
  let json =
    Arg.(
      value & opt string ""
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Write the machine-readable per-pass report to $(docv).")
  in
  let run level no_libc path size timeout all_levels json trace =
    with_trace trace @@ fun () ->
    let config =
      { O.Tv.default_config with O.Engine.input_size = size; timeout }
    in
    let levels = if all_levels then O.Costmodel.all else [ level ] in
    let reports =
      List.map
        (fun (cm : O.Costmodel.t) ->
          let (_, report) =
            O.Tv.validate ~config cm (frontend cm no_libc path)
          in
          Printf.printf "== %s: %d pass applications validated in %.1fs ==\n"
            cm.O.Costmodel.name
            (List.length report.O.Tv.records)
            report.O.Tv.time;
          List.iter
            (fun (r : O.Tv.record) ->
              Printf.printf "  %-16s %-16s %s\n" r.O.Tv.pass r.O.Tv.fn
                (O.Tv.string_of_verdict r.O.Tv.outcome.O.Tv.verdict))
            report.O.Tv.records;
          (match O.Tv.first_offender report with
          | Some o ->
              Printf.printf "  FIRST OFFENDING PASS: %s (in %s)\n" o.O.Tv.pass
                o.O.Tv.fn
          | None -> ());
          report)
        levels
    in
    if json <> "" then
      Out_channel.with_open_text json (fun oc ->
          Printf.fprintf oc "[\n%s\n]\n"
            (String.concat ",\n" (List.map O.Tv.report_to_json reports)));
    if List.for_all (fun r -> O.Tv.counterexamples r = []) reports then 0
    else 1
  in
  Cmd.v
    (Cmd.info "tv"
       ~doc:
         "Translation-validate the optimizer on a program: prove every pass \
          application observably equivalent with the symbolic engine \
          (product-program construction), or report a counterexample naming \
          the offending pass.")
    Term.(
      const run $ level $ no_libc $ source_file $ size $ timeout $ all_levels
      $ json $ trace_arg)

(* ---- profile subcommand ---- *)

let profile_cmd =
  let module P = Overify_harness.Profile in
  let diff =
    Arg.(
      value & opt (some level_arg) None
      & info [ "diff" ] ~docv:"LEVEL"
          ~doc:
            "Also profile at $(docv) and print a side-by-side per-function \
             comparison — which hot-spot did the level remove?")
  in
  let json =
    Arg.(
      value
      & opt ~vopt:(Some "-") (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:
            "Emit the machine-readable report (to stdout, or to $(docv) if \
             given).  Not with $(b,--diff), which prints a table only.")
  in
  let top =
    Arg.(
      value & opt int 8
      & info [ "top" ] ~docv:"N"
          ~doc:"Number of hottest basic blocks to list.")
  in
  let deterministic =
    Arg.(
      value & flag
      & info [ "deterministic" ]
          ~doc:
            "Zero all wall-clock fields and omit the latency histogram in \
             the JSON report, leaving only deterministic attribution (for \
             golden tests and cross-run diffing).")
  in
  let run level no_libc path config cache_dir diff json top deterministic
      trace =
    if diff <> None && json <> None then begin
      Printf.eprintf "profile: --diff prints a table; it cannot write --json\n";
      2
    end
    else
    with_trace trace @@ fun () ->
    let src = read_source path in
    let program = program_name path in
    with_cache_dir cache_dir config @@ fun config ->
    let prof lvl =
      or_input_error path (fun () ->
          P.profile ~program ~level:lvl ~link_libc:(not no_libc) ~config src)
    in
    let p = prof level in
    (match diff with
    | Some lvl2 -> P.print_diff p (prof lvl2)
    | None -> (
        match json with
        | None -> P.print ~top p
        | Some "-" -> print_endline (P.to_json ~times:(not deterministic) p)
        | Some file ->
            Out_channel.with_open_text file (fun oc ->
                output_string oc (P.to_json ~times:(not deterministic) p);
                output_char oc '\n');
            P.print ~top p;
            Printf.eprintf "; profile written to %s\n" file));
    0
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Verify a program symbolically with cost attribution on and report \
          where verification time went: per-function/per-block dynamic \
          instructions, forks, solver queries and solver time, plus the \
          per-pass compile profile.  Attribution sums to the whole-run \
          totals by construction.")
    Term.(
      const run $ level $ no_libc $ source_file $ engine_config
      $ cache_dir_arg $ diff $ json $ top $ deterministic $ trace_arg)

(* ---- serve subcommand ---- *)

let socket_arg =
  Arg.(
    value & opt string ""
    & info [ "socket"; "s" ] ~docv:"PATH"
        ~doc:
          "Unix socket path.  serve: where to listen (default: a fresh \
           path under the temp directory, printed on startup).  client: \
           the daemon to talk to (required).")

let serve_cmd =
  let recent_cap =
    Arg.(
      value & opt int 128
      & info [ "recent-cap" ] ~docv:"N"
          ~doc:
            "Keep the last $(docv) completed request bodies for \
             deduplication (answered without re-executing).")
  in
  let save_every =
    Arg.(
      value & opt int 32
      & info [ "save-every" ] ~docv:"N"
          ~doc:
            "Save the warm solver store to $(b,--cache-dir) every $(docv) \
             executed jobs and at shutdown.  Without $(b,--cache-dir) the \
             store lives in memory and is never written.")
  in
  let queue_cap =
    Arg.(
      value
      & opt (some int) None
      & info [ "queue-cap" ] ~docv:"N"
          ~doc:
            "Admission control: refuse new work once $(docv) jobs are \
             queued, answering a machine-readable $(i,overloaded) error \
             with a $(i,retry_after_ms) backoff hint derived from the \
             live per-kind latency histograms.  Default: unbounded.")
  in
  let grace =
    Arg.(
      value & opt float 2.0
      & info [ "grace" ] ~docv:"SECONDS"
          ~doc:
            "Watchdog escalation margin: a job still running $(docv) \
             seconds past its deadline is presumed wedged — the daemon \
             dumps a flight record, force-cancels it and keeps serving.")
  in
  let idle_timeout =
    Arg.(
      value & opt float 600.0
      & info [ "idle-timeout" ] ~docv:"SECONDS"
          ~doc:
            "Reap connections with no frame in flight for $(docv) \
             seconds (closed silently).  0 disables the reaper.")
  in
  let frame_timeout =
    Arg.(
      value & opt float 30.0
      & info [ "frame-timeout" ] ~docv:"SECONDS"
          ~doc:
            "Drop a connection that stalls mid-frame for $(docv) seconds \
             (the slowloris defence), answering \
             $(i,bad_frame:timeout) first.  0 disables the bound.")
  in
  let flight_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "flight-dir" ] ~docv:"DIR"
          ~doc:
            "Enable the flight recorder: dump the in-memory span/event \
             ring to a post-mortem file under $(docv) whenever a request \
             degrades, a kill/crash is contained, or the daemon shuts \
             down.  Inspect dumps with $(b,overify postmortem).")
  in
  let log_arg =
    let log_conv =
      let parse s =
        match O.Serve_log.level_of_name s with
        | Some l -> Ok l
        | None -> Error (`Msg (Printf.sprintf "unknown log level %s" s))
      in
      Arg.conv (parse, fun fmt l ->
          Format.pp_print_string fmt (O.Serve_log.level_name l))
    in
    Arg.(
      value
      & opt log_conv O.Serve_log.Warn
      & info [ "log" ] ~docv:"LEVEL"
          ~doc:
            "Stderr log threshold: debug, info or warn.  One JSONL line \
             per event, carrying the request's trace id.")
  in
  let run socket cache_dir recent_cap save_every queue_cap grace idle_timeout
      frame_timeout flight_dir log_level =
    let daemon =
      try
        O.Serve.start
          ?socket:(if socket = "" then None else Some socket)
          ?cache_dir ~recent_cap ~save_every ?queue_cap ~grace ~idle_timeout
          ~frame_timeout ?flight_dir ~log_level ()
      with Unix.Unix_error (Unix.EADDRINUSE, "Serve.start", path) ->
        Printf.eprintf "serve: %s: a daemon is already listening there\n"
          path;
        exit 2
    in
    Printf.printf "listening on %s\n%!" (O.Serve.socket_path daemon);
    O.Serve.wait daemon;
    Printf.eprintf "daemon stopped\n";
    0
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the verification service: a daemon accepting concurrent \
          compile/verify/tv requests over a Unix socket (length-prefixed \
          JSON frames), deduplicating identical in-flight and recent \
          requests, and keeping one warm solver store across all of them. \
          Stop it with $(b,overify client -k shutdown).")
    Term.(const run $ socket_arg $ cache_dir_arg $ recent_cap $ save_every
          $ queue_cap $ grace $ idle_timeout $ frame_timeout
          $ flight_dir $ log_arg)

(* ---- client subcommand ---- *)

(** Render the [metrics] document as a compact table (the [--watch]
    screen): every scalar member in document order, then the per-kind
    latency histograms. *)
let metrics_table (j : O.Serve_json.t) : string =
  let b = Buffer.create 1024 in
  (match j with
  | O.Serve_json.Obj members ->
      List.iter
        (fun (k, v) ->
          match v with
          | O.Serve_json.Obj _ -> ()  (* latency_ms, rendered below *)
          | O.Serve_json.Num f when not (Float.is_integer f) ->
              Printf.bprintf b "%-22s %g\n" k f
          | v -> Printf.bprintf b "%-22s %s\n" k (O.Serve_json.to_string v))
        members
  | _ -> ());
  Buffer.add_string b
    "latency_ms    count    mean     p50     p95     p99     max\n";
  (match O.Serve_json.mem j "latency_ms" with
  | Some (O.Serve_json.Obj kinds) ->
      List.iter
        (fun (k, h) ->
          let gi key =
            Option.value ~default:0
              (Option.bind (O.Serve_json.mem h key) O.Serve_json.int_)
          in
          let gf key =
            Option.value ~default:0.0
              (Option.bind (O.Serve_json.mem h key) O.Serve_json.num)
          in
          Buffer.add_string b
            (Printf.sprintf "%-10s %8d %7.2f %7.2f %7.2f %7.2f %7.2f\n" k
               (gi "count") (gf "mean_ms") (gf "p50_ms") (gf "p95_ms")
               (gf "p99_ms") (gf "max_ms")))
        kinds
  | _ -> ());
  Buffer.contents b

let client_cmd =
  let kind_arg =
    Arg.(
      value & opt string "verify"
      & info [ "kind"; "k" ] ~docv:"KIND"
          ~doc:
            "Request kind: verify, compile, tv, metrics (the daemon's \
             per-kind latency histograms, queue depth, in-flight and \
             recent-cache sizes, dedup/store/summary hit counters, uptime \
             and degradation counts) or shutdown (stop the daemon \
             cleanly).")
  in
  let program_arg =
    Arg.(
      value & opt string ""
      & info [ "program"; "p" ] ~docv:"NAME"
          ~doc:"Corpus program to submit (see $(b,overify corpus)).")
  in
  let file_arg =
    Arg.(
      value & opt string ""
      & info [ "file"; "f" ] ~docv:"FILE" ~doc:"MiniC source file to submit.")
  in
  let size =
    Arg.(
      value & opt size_conv 4
      & info [ "size"; "n" ] ~docv:"N"
          ~doc:
            (Printf.sprintf "Symbolic input bytes (0 to %d)."
               O.Serve_protocol.max_input_size))
  in
  let timeout =
    Arg.(
      value & opt float 30.0
      & info [ "timeout"; "t" ] ~docv:"SECONDS" ~doc:"Per-request budget.")
  in
  let jobs =
    Arg.(
      value & opt jobs_conv 1
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:
            (Printf.sprintf
               "Worker domains for this request's exploration (1 to %d)."
               O.Serve_protocol.max_jobs))
  in
  let deterministic =
    Arg.(
      value & flag
      & info [ "deterministic" ]
          ~doc:
            "Ask for a byte-reproducible response (wall-clock and \
             cache-temperature fields zeroed) — comparable to \
             $(b,overify verify --json --deterministic).")
  in
  let prometheus =
    Arg.(
      value & flag
      & info [ "prometheus" ]
          ~doc:
            "Implies $(b,--kind metrics): print the exported counters \
             and latency histograms in Prometheus text exposition format \
             instead of JSON.")
  in
  let watch =
    Arg.(
      value & flag
      & info [ "watch"; "w" ]
          ~doc:
            "Implies $(b,--kind metrics): poll the daemon and redraw a \
             live table until interrupted (or $(b,--count) polls).")
  in
  let interval =
    Arg.(
      value & opt float 2.0
      & info [ "interval" ] ~docv:"SECONDS"
          ~doc:"Poll period for $(b,--watch) (default 2s).")
  in
  let count =
    Arg.(
      value & opt int 0
      & info [ "count" ] ~docv:"N"
          ~doc:"Stop $(b,--watch) after $(docv) polls (0 = forever).")
  in
  let garbage =
    Arg.(
      value & flag
      & info [ "garbage" ]
          ~doc:
            "Send a deliberately malformed (non-JSON) payload and print \
             the daemon's structured error response — a protocol smoke \
             test.")
  in
  let result_only =
    Arg.(
      value & flag
      & info [ "result-only" ]
          ~doc:
            "Print only the $(i,result) field of the response envelope \
             (raw bytes) — for diffing against the one-shot CLI's \
             $(b,--json) output.")
  in
  let retries =
    Arg.(
      value & opt int 0
      & info [ "retries" ] ~docv:"N"
          ~doc:
            "Retry up to $(docv) extra times — a fresh connection per \
             attempt — when the daemon is not up yet (connection \
             refused), the transport fails, or the daemon sheds the \
             request ($(i,overloaded)).  Sleeps a jittered exponential \
             backoff between attempts; an $(i,overloaded) answer's \
             $(i,retry_after_ms) hint is honored as a floor.  Default 0 \
             (one attempt).")
  in
  let backoff =
    Arg.(
      value & opt int 100
      & info [ "backoff" ] ~docv:"MS"
          ~doc:
            "Base backoff for $(b,--retries): attempt k sleeps \
             $(docv)ms × 2^k, jittered ×[0.5,1.5), capped at 10s.")
  in
  let run socket level kind program file size timeout jobs summaries
      deterministic faults prometheus watch interval count garbage
      result_only retries backoff =
    if socket = "" then begin
      Printf.eprintf "client: --socket is required\n";
      exit 2
    end;
    let connect () =
      try O.Serve_client.connect socket
      with _ ->
        Printf.eprintf "client: cannot connect to %s (is the daemon up?)\n"
          socket;
        exit 2
    in
    let kind =
      if prometheus || watch then O.Serve_protocol.Metrics
      else
        match O.Serve_protocol.kind_of_name kind with
        | Some k -> k
        | None ->
            Printf.eprintf "client: unknown kind %s\n" kind;
            exit 2
    in
    let source =
      if file = "" then ""
      else In_channel.with_open_text file In_channel.input_all
    in
    let rq =
      {
        O.Serve_protocol.default_request with
        O.Serve_protocol.rq_kind = kind;
        rq_program = program;
        rq_source = source;
        rq_level = level.O.Costmodel.name;
        rq_input_size = size;
        rq_timeout = timeout;
        rq_jobs = jobs;
        rq_deterministic = deterministic;
        rq_faults = (match faults with Some f -> O.Fault.spec f | None -> "");
        rq_summaries = summaries;
        rq_format = (if prometheus then "prometheus" else "");
      }
    in
    (* the envelope's [result] member; the exposition text travels as a
       JSON string and is decoded *)
    let result_doc json =
      match O.Serve_protocol.extract_field json "result" with
      | Some r -> (
          match O.Serve_json.parse r with
          | Ok (O.Serve_json.Str text) -> text
          | _ -> r)
      | None -> json
    in
    let transport_error e =
      Printf.eprintf "client: transport error: %s\n" e;
      1
    in
    if watch then begin
      (* live telemetry: poll the metrics op and redraw *)
      let conn = connect () in
      let rec go i =
        match O.Serve_client.rpc conn rq with
        | Error e -> transport_error (O.Serve_protocol.frame_error_name e)
        | Ok json ->
            let doc = result_doc json in
            let rendered =
              if prometheus then doc
              else
                match O.Serve_json.parse doc with
                | Ok j -> metrics_table j
                | Error _ -> doc
            in
            Printf.printf "\027[2J\027[H%s%!" rendered;
            if count > 0 && i + 1 >= count then 0
            else begin
              Unix.sleepf interval;
              go (i + 1)
            end
      in
      let rc = go 0 in
      O.Serve_client.close conn;
      rc
    end
    else
      let answer =
        if garbage then begin
          let conn = connect () in
          let r =
            if O.Serve_client.send_payload conn "this is not json {" then
              O.Serve_client.read_response conn
            else Error O.Serve_protocol.Closed
          in
          O.Serve_client.close conn;
          Result.map_error O.Serve_protocol.frame_error_name r
        end
        else if retries > 0 then
          (* fresh connection per attempt; retries connect failures,
             transport errors and [overloaded] sheds (honoring the
             daemon's retry_after_ms pacing hint) *)
          O.Serve_client.rpc_retry ~socket ~retries ~backoff_ms:backoff rq
        else begin
          let conn = connect () in
          let r = O.Serve_client.rpc conn rq in
          O.Serve_client.close conn;
          Result.map_error O.Serve_protocol.frame_error_name r
        end
      in
      match answer with
      | Error e -> transport_error e
      | Ok json ->
          print_endline
            (if prometheus || result_only then result_doc json else json);
          let ok =
            match O.Serve_protocol.extract_field json "status" with
            | Some "\"ok\"" -> true
            | _ -> false
          in
          if ok then 0 else 1
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "Send one request to a running $(b,overify serve) daemon and \
          print the JSON response envelope.")
    Term.(
      const run $ socket_arg $ level $ kind_arg $ program_arg $ file_arg
      $ size $ timeout $ jobs $ summaries_arg $ deterministic $ faults_arg
      $ prometheus $ watch $ interval $ count $ garbage $ result_only
      $ retries $ backoff)

(* ---- postmortem subcommand ---- *)

let postmortem_cmd =
  let file =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE"
          ~doc:"A flight-record file (flight-*.bin) from the daemon's \
                $(b,--flight-dir).")
  in
  let run file =
    match O.Serve_flight.load file with
    | Error msg ->
        Printf.eprintf "postmortem: %s\n" msg;
        1
    | Ok d ->
        O.Serve_flight.render d;
        0
  in
  Cmd.v
    (Cmd.info "postmortem"
       ~doc:
         "Replay a daemon flight record: the bounded ring of spans, \
          events and warnings the daemon dumped when a request degraded, \
          a worker crashed or the daemon stopped.  Prints one line per \
          record with relative timestamps, trace ids, span nesting, \
          durations and counters.")
    Term.(const run $ file)

(* ---- corpus subcommand ---- *)

let corpus_cmd =
  let run () =
    List.iter
      (fun (p : O.Programs.t) ->
        Printf.printf "%-10s %s\n" p.O.Programs.name p.O.Programs.descr)
      O.Programs.programs;
    0
  in
  Cmd.v
    (Cmd.info "corpus" ~doc:"List the bundled Coreutils-like programs.")
    Term.(const run $ const ())

let main_cmd =
  Cmd.group
    (Cmd.info "overify" ~version:"1.0"
       ~doc:
         "Compiler + symbolic-execution toolchain reproducing '-OVERIFY: \
          Optimizing Programs for Fast Verification' (HotOS 2013).")
    [ compile_cmd; run_cmd; verify_cmd; analyze_cmd; tv_cmd; profile_cmd;
      serve_cmd; client_cmd; postmortem_cmd; corpus_cmd ]

let () = exit (Cmd.eval' main_cmd)
