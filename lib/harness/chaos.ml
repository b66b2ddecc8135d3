(** Chaos sweep: every corpus program is explored under a battery of
    deterministic fault schedules (see [Overify_fault.Fault]) and the
    hardening contract is checked cell by cell:

    - no fault schedule may crash the engine (uncaught exception = FAIL);
    - a faulted run is deterministic — the same schedule re-run from a
      freshly parsed [Fault.t] reports identical verdicts, degradations
      and injected-fault counters;
    - whenever a runtime fault actually fired (solver timeout, allocation
      exhaustion, worker crash), the result carries a non-empty
      [degradations] list — nothing degrades silently;
    - the completed subset keeps the determinism contract: the degraded
      run's paths, exit codes, bugs and coverage are a subset of the
      clean run's (an injected fault may only remove verdicts, never
      invent or alter one).

    A final kill/resume phase injects an uncontainable [Fault.Killed]
    mid-run with checkpointing on, resumes from the snapshot, and demands
    byte-identical sorted verdicts versus an uninterrupted run — the
    ISSUE's headline robustness property. *)

module Costmodel = Overify_opt.Costmodel
module Programs = Overify_corpus.Programs
module Engine = Overify_symex.Engine
module Fault = Overify_fault.Fault
module Obs = Overify_obs.Obs
module Flight = Overify_serve.Flight

(** The schedules of the default battery.  Chosen to fire while a run of
    a small corpus program at [-O0] is still in flight: early solver
    queries, an allocation a few calls in, executor steps both shortly
    after warm-up and deep into the exploration, plus one seeded
    pseudo-random mix.  [kill@N] is deliberately absent — random kills
    belong to the dedicated kill/resume phase, not the sweep. *)
let default_schedules =
  [ "timeout@3,timeout@7"; "crash@150,crash@900"; "alloc@120,timeout@9";
    "seed:7:4" ]

type cell = {
  c_program : string;
  c_schedule : string;
  c_crashed : string option;  (** uncaught exception text, if any *)
  c_paths : int;
  c_clean_paths : int;
  c_injected : int;           (** faults that actually fired *)
  c_degradations : int;       (** distinct degradation groups reported *)
  c_repeat_agrees : bool;     (** re-run with a fresh [Fault.t] agreed *)
  c_subset : bool;            (** verdicts ⊆ clean verdicts *)
  c_flight : bool;
      (** every fired fault left a readable flight record: the ring dump
          round-trips through {!Overify_serve.Flight} and carries a
          [fault.injected] event on this run's trace (vacuously true
          when nothing fired) *)
  c_failures : string list;   (** contract violations in this cell *)
}

type kill_resume = {
  k_program : string;
  k_ok : bool;
  k_detail : string;
}

type report = {
  cells : cell list;
  kill : kill_resume option;
  failures : int;  (** total contract violations (0 = pass) *)
}

(* ---- verdict helpers ---- *)

(** The per-run facts the determinism contract covers, as sorted lines —
    comparing two runs byte-for-byte is then string equality. *)
let verdict_lines (r : Engine.result) : string list =
  List.sort compare
    (List.map
       (fun (witness, code) -> Printf.sprintf "exit %S = %Ld" witness code)
       r.Engine.exit_codes
    @ List.map
        (fun (b : Engine.bug) ->
          Printf.sprintf "bug %s @ %s input=%S" b.Engine.kind
            b.Engine.at_function b.Engine.input)
        r.Engine.bugs)

(** Multiset subset on sorted lists. *)
let rec subset xs ys =
  match (xs, ys) with
  | [], _ -> true
  | _ :: _, [] -> false
  | x :: xs', y :: ys' ->
      if x = y then subset xs' ys'
      else if compare x y > 0 then subset xs ys'
      else false

(** Bugs compared by (kind, function) only: dedup keeps the smallest
    witness, and dropping the path that produced it legitimately changes
    the witness of a bug the degraded run still finds. *)
let bug_sites (r : Engine.result) =
  List.sort compare
    (List.map
       (fun (b : Engine.bug) -> (b.Engine.kind, b.Engine.at_function))
       r.Engine.bugs)

let same_outcome (a : Engine.result) (b : Engine.result) =
  verdict_lines a = verdict_lines b
  && a.Engine.paths = b.Engine.paths
  && a.Engine.degradations = b.Engine.degradations
  && a.Engine.faults_injected = b.Engine.faults_injected
  && a.Engine.blocks_covered = b.Engine.blocks_covered

(** Injected faults that must surface as degradations: the runtime kinds.
    Store corruption faults fire on save and only show up as an empty
    store on the next load, so they are excluded here. *)
let runtime_injected (r : Engine.result) =
  List.fold_left
    (fun acc (k, n) ->
      if k = "timeout" || k = "alloc" || k = "crash" then acc + n else acc)
    0 r.Engine.faults_injected

(* ---- the sweep ---- *)

(** A wall-clock-truncated run is legitimately nondeterministic (the
    determinism contract covers complete runs and deterministically
    truncated ones — budgets and injected faults — not time). *)
let wall_clocked (r : Engine.result) =
  List.exists
    (fun (d : Engine.degradation) -> d.Engine.d_kind = "wall_clock")
    r.Engine.degradations

let run_faulted ?span ~config compiled spec : (Engine.result, string) result =
  match Fault.parse spec with
  | Error msg -> Error (Printf.sprintf "unparseable schedule %S: %s" spec msg)
  | Ok faults -> (
      try
        Ok
          (Engine.run
             ~config:{ config with Engine.faults = Some faults; span }
             compiled.Experiment.modul)
      with e -> Error (Printexc.to_string e))

(** Wipe and remove a flat temp directory; best effort. *)
let rm_rf dir =
  (if Sys.file_exists dir && Sys.is_directory dir then
     Array.iter
       (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
       (Sys.readdir dir));
  try Sys.rmdir dir with Sys_error _ -> ()

(** Dump the flight ring and check the injected fault left its mark: the
    dump must round-trip through {!Flight} and contain a [label] event
    on [trace].  The dump directory is temporary and removed. *)
let flight_check ~trace ~label : (unit, string) result =
  let tmp = Filename.temp_file "overify_chaos_flight" "" in
  Sys.remove tmp;
  let dir = tmp ^ ".d" in
  let res =
    match Flight.dump ~dir ~reason:"chaos" ~trace () with
    | None -> Error "flight dump failed"
    | Some path -> (
        match Flight.load path with
        | Error msg -> Error ("flight record unreadable: " ^ msg)
        | Ok d ->
            if
              List.exists
                (fun (r : Obs.Flight.record) ->
                  r.Obs.Flight.fr_trace = trace
                  && r.Obs.Flight.fr_label = label)
                d.Flight.fd_records
            then Ok ()
            else
              Error
                (Printf.sprintf "no %s event on trace %s in flight record"
                   label trace))
  in
  rm_rf dir;
  res

let sweep_cell ~config compiled ~(clean : Engine.result) spec : cell =
  let comparable = clean.Engine.complete in
  let pname = compiled.Experiment.program.Programs.name in
  let base =
    {
      c_program = pname;
      c_schedule = spec;
      c_crashed = None;
      c_paths = 0;
      c_clean_paths = clean.Engine.paths;
      c_injected = 0;
      c_degradations = 0;
      c_repeat_agrees = false;
      c_subset = false;
      c_flight = false;
      c_failures = [];
    }
  in
  (* the faulted run carries a span, so fired faults land in the flight
     ring as [fault.injected] events on this cell's trace *)
  let trace = Printf.sprintf "chaos-%s-%s" pname spec in
  let span = Obs.Span.start ~trace ("chaos." ^ pname) in
  let first = run_faulted ~span ~config compiled spec in
  Obs.Span.finish span;
  match first with
  | Error msg ->
      { base with
        c_crashed = Some msg;
        c_failures = [ "uncaught exception: " ^ msg ] }
  | Ok r1 ->
      let failures = ref [] in
      let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
      (* two-run determinism, from a freshly parsed schedule — asserted
         unless a run hit the wall clock, whose truncation point is
         legitimately timing-dependent *)
      let repeat_agrees =
        match run_faulted ~config compiled spec with
        | Error msg ->
            fail "re-run crashed: %s" msg;
            false
        | Ok r2 when wall_clocked r1 || wall_clocked r2 -> true
        | Ok r2 ->
            let ok = same_outcome r1 r2 in
            if not ok then
              fail "re-run disagreed (paths %d vs %d)" r1.Engine.paths
                r2.Engine.paths;
            ok
      in
      (* fired runtime faults must be accounted for *)
      let injected = runtime_injected r1 in
      if injected > 0 && r1.Engine.degradations = [] then
        fail "%d runtime fault(s) fired but degradations is empty" injected;
      (* ... and must have left a readable flight record *)
      let any_fired =
        List.exists (fun (_, n) -> n > 0) r1.Engine.faults_injected
      in
      let flight =
        if not any_fired then true
        else
          match flight_check ~trace ~label:"fault.injected" with
          | Ok () -> true
          | Error msg ->
              fail "flight record: %s" msg;
              false
      in
      (* completed-subset determinism versus the clean run — only
         meaningful against a complete baseline *)
      let sub =
        (not comparable)
        || wall_clocked r1
        || subset (verdict_lines r1) (verdict_lines clean)
           && subset (bug_sites r1) (bug_sites clean)
           && r1.Engine.paths <= clean.Engine.paths
           && r1.Engine.blocks_covered <= clean.Engine.blocks_covered
      in
      if not sub then fail "degraded verdicts are not a subset of clean";
      {
        base with
        c_paths = r1.Engine.paths;
        c_injected =
          List.fold_left (fun a (_, n) -> a + n) 0 r1.Engine.faults_injected;
        c_degradations = List.length r1.Engine.degradations;
        c_repeat_agrees = repeat_agrees;
        c_subset = sub;
        c_flight = flight;
        c_failures = List.rev !failures;
      }

(* ---- kill/resume ---- *)

(** Kill an exploration of [compiled] mid-run (checkpointing on), resume
    it, and compare against the uninterrupted [clean] run made under
    [config]. *)
let kill_and_resume ~config compiled ~(clean : Engine.result) : kill_resume =
  let pname = compiled.Experiment.program.Programs.name in
  let tmp = Filename.temp_file "overify_chaos_ck" "" in
  let dir = tmp ^ ".d" in
  let finish ok detail =
    rm_rf dir;
    (try Sys.remove tmp with Sys_error _ -> ());
    { k_program = pname; k_ok = ok; k_detail = detail }
  in
  if not clean.Engine.complete then
    finish true "skipped: baseline incomplete at this budget"
  else
  (* kill halfway through the instruction stream, with a snapshot cadence
     fine enough that several checkpoints exist by then *)
  let kill_at = max 2 (clean.Engine.instructions / 2) in
  let spec = Printf.sprintf "kill@%d" kill_at in
  (* even a kill that escapes the engine must leave a flight trail: mark
     the attempt on a trace, then dump the ring once the kill fires *)
  let trace = "chaos-kill-" ^ pname in
  Obs.Span.event ~trace ~args:[ ("spec", spec) ] "chaos.kill";
  match Fault.parse spec with
  | Error msg -> finish false ("bad kill spec: " ^ msg)
  | Ok faults -> (
      let span = Obs.Span.start ~trace "chaos.kill_run" in
      match
        Engine.run
          ~config:
            {
              config with
              Engine.faults = Some faults;
              checkpoint_dir = Some dir;
              checkpoint_every = 8;
              span = Some span;
            }
          compiled.Experiment.modul
      with
      | (_ : Engine.result) ->
          finish false
            (Printf.sprintf "kill@%d never fired (run completed)" kill_at)
      | exception Fault.Killed _ -> (
          match flight_check ~trace ~label:"chaos.kill" with
          | Error msg ->
              finish false ("killed run's flight record: " ^ msg)
          | Ok () -> (
          match
            Engine.run
              ~config:
                { config with Engine.checkpoint_dir = Some dir; resume = true }
              compiled.Experiment.modul
          with
          | exception e ->
              finish false ("resume crashed: " ^ Printexc.to_string e)
          | resumed ->
              if not resumed.Engine.resumed then
                finish false "resume found no checkpoint"
              else if not (Engine.same_verdicts resumed clean) then
                finish false
                  (Printf.sprintf
                     "resumed verdicts differ from uninterrupted run (paths \
                      %d vs %d, blocks %d vs %d)"
                     resumed.Engine.paths clean.Engine.paths
                     resumed.Engine.blocks_covered clean.Engine.blocks_covered)
              else
                finish true
                  (Printf.sprintf
                     "killed at step %d, resumed, %d paths byte-identical"
                     kill_at resumed.Engine.paths)))
      | exception e ->
          finish false ("killed run raised unexpectedly: " ^ Printexc.to_string e))

(* ---- entry point ---- *)

let cell_to_json c =
  Printf.sprintf
    "  {\"program\": %S, \"schedule\": %S, \"crashed\": %b, \"paths\": %d, \
     \"clean_paths\": %d, \"injected\": %d, \"degradations\": %d, \
     \"repeat_agrees\": %b, \"subset\": %b, \"flight\": %b, \"failures\": \
     [%s]}"
    c.c_program c.c_schedule
    (c.c_crashed <> None)
    c.c_paths c.c_clean_paths c.c_injected c.c_degradations c.c_repeat_agrees
    c.c_subset c.c_flight
    (String.concat ", " (List.map (Printf.sprintf "%S") c.c_failures))

(** Run the chaos sweep.  Every program in [programs] is compiled at
    [level] and explored clean once, then under each schedule twice (the
    determinism check).  [kill_resume] (default true) appends the
    kill/resume phase on the first program.  [summaries] (default false)
    runs the whole sweep — clean baselines and faulted runs alike — in
    compositional-summaries mode; the contract is the same (a fault
    firing during summary construction must degrade the run, not crash
    it).  Summaries do not combine with the kill/resume phase: a kill
    firing mid-build precedes the first checkpoint, so callers turning
    [summaries] on should pass [kill_resume:false].  Writes the
    machine-readable report to [json_path] unless empty.  Returns the
    report; callers gate on [report.failures = 0]. *)
let run ?(input_size = 3) ?(timeout = 60.0) ?(level = Costmodel.o0)
    ?(schedules = default_schedules) ?(programs = Programs.programs)
    ?(kill_resume = true) ?(summaries = false)
    ?(json_path = "BENCH_chaos.json") () : report =
  Report.section
    (Printf.sprintf
       "Chaos sweep: corpus x %d fault schedules at %s (n=%d bytes)"
       (List.length schedules) level.Costmodel.name input_size);
  (* the kill/resume phase keeps the environment's summaries default *)
  let base = { Engine.default_config with input_size; timeout } in
  let config = { base with summaries } in
  let cells =
    List.concat_map
      (fun (p : Programs.t) ->
        let compiled = Experiment.compile level p in
        let clean = Engine.run ~config compiled.Experiment.modul in
        let clean_cell =
          (* an incomplete baseline weakens the subset checks; only a
             wall-clock degradation excuses it (a slow program at this
             budget) — anything else in a fault-free run is a failure *)
          if clean.Engine.complete then []
          else
            [ { c_program = p.Programs.name;
                c_schedule = "(none)";
                c_crashed = None;
                c_paths = clean.Engine.paths;
                c_clean_paths = clean.Engine.paths;
                c_injected = 0;
                c_degradations = List.length clean.Engine.degradations;
                c_repeat_agrees = true;
                c_subset = true;
                c_flight = true;
                c_failures =
                  (if wall_clocked clean then []
                   else [ "fault-free baseline degraded" ]);
              } ]
        in
        clean_cell
        @ List.map
            (sweep_cell ~config compiled ~clean)
            schedules)
      programs
  in
  let kill =
    match programs with
    | p :: _ when kill_resume ->
        let compiled = Experiment.compile level p in
        let clean = Engine.run ~config:base compiled.Experiment.modul in
        Some (kill_and_resume ~config:base compiled ~clean)
    | _ -> None
  in
  let failures =
    List.fold_left (fun acc c -> acc + List.length c.c_failures) 0 cells
    + (match kill with Some k when not k.k_ok -> 1 | _ -> 0)
  in
  let header =
    [ "program"; "schedule"; "paths"; "clean"; "injected"; "degradations";
      "2-run agree"; "subset"; "flight"; "ok" ]
  in
  let body =
    List.map
      (fun c ->
        [
          c.c_program; c.c_schedule;
          string_of_int c.c_paths;
          string_of_int c.c_clean_paths;
          string_of_int c.c_injected;
          string_of_int c.c_degradations;
          string_of_bool c.c_repeat_agrees;
          string_of_bool c.c_subset;
          string_of_bool c.c_flight;
          (if c.c_failures = [] then "yes" else "NO");
        ])
      cells
  in
  Report.table (header :: body);
  List.iter
    (fun c ->
      List.iter
        (fun f ->
          Printf.printf "  FAIL %s [%s]: %s\n" c.c_program c.c_schedule f)
        c.c_failures)
    cells;
  (match kill with
  | Some k ->
      Printf.printf "kill/resume (%s): %s — %s\n" k.k_program
        (if k.k_ok then "ok" else "FAIL")
        k.k_detail
  | None -> ());
  if json_path <> "" then begin
    let kill_json =
      match kill with
      | None -> "null"
      | Some k ->
          Printf.sprintf "{\"program\": %S, \"ok\": %b, \"detail\": %S}"
            k.k_program k.k_ok k.k_detail
    in
    Out_channel.with_open_text json_path (fun oc ->
        Printf.fprintf oc
          "{\"cells\": [\n%s\n],\n\"kill_resume\": %s,\n\"failures\": %d}\n"
          (String.concat ",\n" (List.map cell_to_json cells))
          kill_json failures);
    Printf.printf "wrote %s\n" json_path
  end;
  if failures = 0 then
    print_endline
      "chaos sweep passed: zero crashes, deterministic degraded subsets, \
       every fired fault flight-recorded"
  else Printf.printf "CHAOS SWEEP FAILED: %d contract violation(s)\n" failures;
  { cells; kill; failures }
