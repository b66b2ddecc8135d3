(** Observability suite: unit tests for the metric primitives ([Obs.Hist],
    [Obs.Pass], [Obs.Counters], [Obs.Profile]), the central
    attribution invariant (per-site sums, per-worker-span sums and the
    whole-run [Engine.result] totals agree on every counter), the shape and
    determinism of the [overify profile --json] report, and the trace
    sink. *)

module Obs = Overify_obs.Obs
module Counters = Obs.Counters
module Engine = Overify_symex.Engine
module Checkpoint = Overify_symex.Checkpoint
module Binfile = Overify_solver.Binfile
module Frontend = Overify_minic.Frontend
module Costmodel = Overify_opt.Costmodel
module Pipeline = Overify_opt.Pipeline
module Programs = Overify_corpus.Programs
module Vclib = Overify_vclib.Vclib
module Profile = Overify_harness.Profile

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let string = Alcotest.string

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* ------------- Hist ------------- *)

let test_hist_observe () =
  let h = Obs.Hist.create () in
  check int "empty count" 0 h.Obs.Hist.count;
  Obs.Hist.observe h 0.001;
  Obs.Hist.observe h 0.004;
  Obs.Hist.observe h 0.002;
  check int "count" 3 h.Obs.Hist.count;
  check (Alcotest.float 1e-9) "sum" 0.007 h.Obs.Hist.sum;
  check (Alcotest.float 1e-9) "max" 0.004 h.Obs.Hist.max;
  check (Alcotest.float 1e-9) "mean" (0.007 /. 3.) (Obs.Hist.mean h)

let test_hist_buckets_monotonic () =
  let prev = ref 0.0 in
  for i = 0 to Obs.Hist.nbuckets - 1 do
    let b = Obs.Hist.bucket_bound i in
    check bool (Printf.sprintf "bound %d grows" i) true (b > !prev);
    prev := b
  done

let test_hist_percentile () =
  let h = Obs.Hist.create () in
  (* 90 fast observations, 10 slow ones *)
  for _ = 1 to 90 do Obs.Hist.observe h 0.0001 done;
  for _ = 1 to 10 do Obs.Hist.observe h 0.1 done;
  let p50 = Obs.Hist.percentile h 0.5 in
  let p99 = Obs.Hist.percentile h 0.99 in
  check bool "p50 is fast" true (p50 < 0.01);
  check bool "p99 is slow" true (p99 > 0.01);
  check bool "percentile capped at max" true (p99 <= h.Obs.Hist.max)

let test_hist_merge () =
  let a = Obs.Hist.create () and b = Obs.Hist.create () in
  Obs.Hist.observe a 0.001;
  Obs.Hist.observe b 0.002;
  Obs.Hist.observe b 0.3;
  Obs.Hist.merge_into a b;
  check int "merged count" 3 a.Obs.Hist.count;
  check (Alcotest.float 1e-9) "merged sum" 0.303 a.Obs.Hist.sum;
  check (Alcotest.float 1e-9) "merged max" 0.3 a.Obs.Hist.max;
  check int "source untouched" 2 b.Obs.Hist.count

let test_hist_overflow () =
  (* 200 s lands in the unbounded last bucket: no finite bound holds it *)
  let h = Obs.Hist.create () in
  Obs.Hist.observe h 200.0;
  check (Alcotest.float 1e-9) "p50 is the observed max" 200.0
    (Obs.Hist.percentile h 0.5);
  let cum = Obs.Hist.cumulative h in
  check int "one entry per bounded bucket" (Obs.Hist.nbuckets - 1)
    (List.length cum);
  List.iter
    (fun (bound, n) ->
      check int (Printf.sprintf "nothing under le=%g" bound) 0 n)
    cum;
  check int "counted only under +Inf" 1 h.Obs.Hist.count;
  (* beside a bounded observation: its bucket's bound, then the max *)
  Obs.Hist.observe h 0.0015;
  check (Alcotest.float 1e-9) "p50 is the bound above 1.5 ms" 0.002048
    (Obs.Hist.percentile h 0.5);
  check (Alcotest.float 1e-9) "p99 is still the max" 200.0
    (Obs.Hist.percentile h 0.99)

(* ------------- Pass ------------- *)

let app pass fn time before after changed =
  {
    Obs.Pass.pa_pass = pass;
    pa_fn = fn;
    pa_time = time;
    pa_size_before = before;
    pa_size_after = after;
    pa_changed = changed;
  }

let test_pass_rollup () =
  let p = Obs.Pass.create () in
  Obs.Pass.record ~into:p ~ts:0.0 (app "gvn" "f" 0.1 100 90 true);
  Obs.Pass.record ~into:p ~ts:0.0 (app "dce" "f" 0.2 90 80 true);
  Obs.Pass.record ~into:p ~ts:0.0 (app "gvn" "g" 0.3 50 50 false);
  check int "apps in order" 3 (List.length (Obs.Pass.apps p));
  check string "first app" "gvn" (List.nth (Obs.Pass.apps p) 0).Obs.Pass.pa_pass;
  match Obs.Pass.rollup p with
  | [ gvn; dce ] ->
      check string "rollup order = first application" "gvn" gvn.Obs.Pass.pr_pass;
      check int "gvn apps" 2 gvn.Obs.Pass.pr_apps;
      check int "gvn changed" 1 gvn.Obs.Pass.pr_changed;
      check (Alcotest.float 1e-9) "gvn time" 0.4 gvn.Obs.Pass.pr_time;
      check int "gvn dsize" (-10) gvn.Obs.Pass.pr_dsize;
      check int "dce apps" 1 dce.Obs.Pass.pr_apps;
      check int "dce dsize" (-10) dce.Obs.Pass.pr_dsize
  | l -> Alcotest.failf "expected 2 rollup rows, got %d" (List.length l)

(* ------------- Counters and the profile collector ------------- *)

(* a profile is a view of one record: a cut settles the record's growth
   since the last cut into the site that was current *)
let test_profile_cuts () =
  let c = Counters.create () and p = Obs.Profile.create () in
  (* growth while no site is current is attributed nowhere *)
  c.Counters.instructions <- 1;
  Obs.Profile.cut p c ~fn:"main" ~block:3;
  c.Counters.instructions <- 11;
  Obs.Profile.cut p c ~fn:"main" ~block:3;
  check int "cutting to the current site settles nothing" 0
    (List.length (Obs.Profile.sites p));
  Obs.Profile.cut p c ~fn:"main" ~block:7;
  c.Counters.queries <- 2;
  Obs.Profile.cut p c ~fn:"wc" ~block:3;
  c.Counters.instructions <- 16;
  Obs.Profile.cut p c ~fn:"wc" ~block:9;
  Obs.Profile.leave p c;
  (match Obs.Profile.sites p with
  | [ (("main", 3), m3); (("main", 7), m7); (("wc", 3), w3) ] ->
      check int "main L3 instructions" 10 m3.Counters.instructions;
      check int "main L7 queries" 2 m7.Counters.queries;
      check int "wc L3 instructions" 5 w3.Counters.instructions
  | sites ->
      Alcotest.failf "expected three sites in order (wc L9 did not grow), got %d"
        (List.length sites));
  (* after a leave, growth up to the next cut is attributed nowhere: how
     a resumed run's seeded counts stay out of the profile *)
  c.Counters.forks <- 4;
  Obs.Profile.cut p c ~fn:"main" ~block:3;
  c.Counters.forks <- 5;
  Obs.Profile.leave p c;
  let totals p = Counters.sum (List.map snd (Obs.Profile.sites p)) in
  let t = totals p in
  check int "total insts" 15 t.Counters.instructions;
  check int "total queries" 2 t.Counters.queries;
  check int "seeded forks attributed nowhere" 1 t.Counters.forks;
  (* merge *)
  let d = Counters.create () and q = Obs.Profile.create () in
  Obs.Profile.cut q d ~fn:"main" ~block:3;
  d.Counters.instructions <- 100;
  Obs.Profile.cut q d ~fn:"new" ~block:0;
  d.Counters.forks <- 4;
  Obs.Profile.leave q d;
  Obs.Profile.merge_into p q;
  let t = totals p in
  check int "merged insts" 115 t.Counters.instructions;
  check int "merged forks" 5 t.Counters.forks;
  check int "four sites after merge" 4 (List.length (Obs.Profile.sites p));
  (* settle moves growth, then the mark *)
  let into = Counters.create () and mark = Counters.create () in
  Counters.settle ~into ~mark t;
  Counters.settle ~into ~mark t;
  check int "settled once" 115 into.Counters.instructions;
  check int "mark follows the record" 5 mark.Counters.forks;
  check bool "to_list names every field once, in a fixed order" true
    (List.map fst (Counters.to_list t)
    = [ "instructions"; "forks"; "paths"; "queries"; "cache_hits";
        "solver_time"; "components"; "component_solves"; "hits_canon";
        "hits_store"; "summary_instantiated"; "summary_opaque" ])

(* ------------- the attribution invariant ------------- *)

let compile_program ?(level = Costmodel.overify) (p : Programs.t) =
  (Pipeline.optimize level
     (Frontend.compile_sources [ Vclib.for_cost_model level; p.Programs.source ]))
    .Pipeline.modul

let run_profiled ?(searcher = `Dfs) ?(input_size = 3) ?(summaries = false)
    ?span m =
  Engine.run
    ~config:
      {
        Engine.default_config with
        input_size;
        timeout = 30.0;
        searcher;
        profile = true;
        summaries;
        span;
      }
    m

let prefixed pre l =
  String.length l >= String.length pre
  && String.sub l 0 (String.length pre) = pre

(* [Engine.result]'s totals under their counter names *)
let result_counters (r : Engine.result) =
  let i = float_of_int in
  [
    ("instructions", i r.Engine.instructions);
    ("forks", i r.Engine.forks);
    ("paths", i r.Engine.paths);
    ("queries", i r.Engine.queries);
    ("cache_hits", i r.Engine.cache_hits);
    ("solver_time", r.Engine.solver_time);
    ("components", i r.Engine.components);
    ("component_solves", i r.Engine.component_solves);
    ("hits_canon", i r.Engine.hits_canon);
    ("hits_store", i r.Engine.hits_store);
    ("summary_instantiated", i r.Engine.summary_instantiated);
    ("summary_opaque", i r.Engine.summary_opaque);
  ]

(* One run, profiled and traced: for every counter, the per-site sums of
   the profile, the sums over the symex.worker<i> spans and the result
   totals agree — integers exactly, solver time (float deltas of one
   accumulator) up to rounding.  Returns the result. *)
let check_counters_agree ?searcher ?input_size ?summaries name m =
  let trace = "t-agree-" ^ name in
  let root = Obs.Span.start ~trace "request.verify" in
  let r = run_profiled ?searcher ?input_size ?summaries ~span:root m in
  Obs.Span.finish root;
  let sites =
    match r.Engine.profile with
    | Some p -> Counters.sum (List.map snd (Obs.Profile.sites p))
    | None -> Alcotest.failf "%s: no profile returned" name
  in
  let workers =
    List.filter
      (fun x ->
        x.Obs.Flight.fr_trace = trace && x.Obs.Flight.fr_kind = "span"
        && prefixed "symex.worker" x.Obs.Flight.fr_label)
      (Obs.Flight.records ())
  in
  check int (name ^ ": one span per worker") r.Engine.jobs
    (List.length workers);
  let span_sum k =
    List.fold_left
      (fun acc w ->
        let v = List.assoc_opt k w.Obs.Flight.fr_counters in
        acc +. Option.value ~default:nan v)
      0.0 workers
  in
  List.iter
    (fun (k, site) ->
      let total = List.assoc k (result_counters r) and span = span_sum k in
      if k = "solver_time" then begin
        let tol = 1e-6 +. (1e-9 *. float_of_int r.Engine.queries) in
        if abs_float (site -. total) > tol || abs_float (span -. total) > tol
        then
          Alcotest.failf "%s: solver time %.9f, sites %.9f, spans %.9f" name
            total site span
      end
      else if site <> total || span <> total then
        Alcotest.failf "%s: %s total %.0f, sites %.0f, spans %.0f" name k
          total site span)
    (Counters.to_list sites);
  r

(* every corpus program sequentially, wc on two workers, and wc at -O0
   with summaries instantiated at its call sites *)
let test_counters_agree () =
  List.iter
    (fun (p : Programs.t) ->
      ignore
        (check_counters_agree ~input_size:2 p.Programs.name
           (compile_program p)))
    Programs.programs;
  let wc = Option.get (Programs.find "wc") in
  let r =
    check_counters_agree ~searcher:(`Parallel 2) "wc@parallel2"
      (compile_program wc)
  in
  check int "two workers" 2 r.Engine.jobs;
  let r =
    check_counters_agree ~summaries:true "wc@O0+summaries"
      (compile_program ~level:Costmodel.o0 wc)
  in
  check bool "summaries instantiated" true (r.Engine.summary_instantiated > 0)

(* Per-site attribution is pinned: the agreement test above checks sums
   only, so a count that moved to another block would pass it.  Each of
   its cells is one row of test/profile_digests.tsv: whether the run
   completed, and the MD5 of its sorted sites with the counters that do
   not depend on reuse state (hits, fresh solves and solver time do). *)
let profile_digests_header = "# cell\tcomplete\tsites_md5"

let sites_md5 (p : Obs.Profile.t) =
  Obs.Profile.sites p
  |> List.map (fun ((fn, block), (c : Counters.t)) ->
         Printf.sprintf "%s\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\n" fn block
           c.Counters.instructions c.Counters.forks c.Counters.paths
           c.Counters.queries c.Counters.components
           c.Counters.summary_instantiated c.Counters.summary_opaque)
  |> String.concat "" |> Digest.string |> Digest.to_hex

let test_profile_digests () =
  let wc = Option.get (Programs.find "wc") in
  let cells =
    List.map
      (fun (p : Programs.t) ->
        (p.Programs.name, fun () -> run_profiled ~input_size:2 (compile_program p)))
      Programs.programs
    @ [
        ( "wc@parallel2",
          fun () -> run_profiled ~searcher:(`Parallel 2) (compile_program wc) );
        ( "wc@O0+summaries",
          fun () ->
            run_profiled ~summaries:true
              (compile_program ~level:Costmodel.o0 wc) );
      ]
  in
  let rows =
    List.map
      (fun (name, run) ->
        let r = run () in
        Printf.sprintf "%s\t%b\t%s" name r.Engine.complete
          (sites_md5 (Option.get r.Engine.profile)))
      cells
  in
  Pinned.check ~name:"profile_digests" ~header:profile_digests_header ~keys:1
    ~what:"per-site attribution" rows

(* a resumed run's seeded counts stay unattributed: the engine settles
   the summary build's costs and leaves no site current before seeding
   the record from the snapshot *)
let test_resumed_profile () =
  let m = compile_program ~level:Costmodel.o0 (Option.get (Programs.find "wc")) in
  Binfile.with_temp_dir "overify_obs_ck" @@ fun dir ->
  let config =
    {
      Engine.default_config with
      input_size = 2;
      timeout = 30.0;
      summaries = true;
      max_paths = 6;
      checkpoint_dir = Some dir;
      checkpoint_every = 2;
    }
  in
  check bool "budget run degraded" false (Engine.run ~config m).Engine.complete;
  let snap =
    match
      Checkpoint.load ~dir ~digest:(Checkpoint.fingerprint m ~input_size:2)
    with
    | Some s -> s
    | None -> Alcotest.fail "snapshot did not load"
  in
  check bool "snapshot holds paths" true (snap.Checkpoint.ck_paths > 0);
  let r =
    Engine.run
      ~config:
        {
          config with
          max_paths = Engine.default_config.Engine.max_paths;
          resume = true;
          profile = true;
        }
      m
  in
  check bool "resumed" true r.Engine.resumed;
  let sites =
    Counters.sum (List.map snd (Obs.Profile.sites (Option.get r.Engine.profile)))
  in
  check int "seeded paths unattributed"
    (r.Engine.paths - snap.Checkpoint.ck_paths)
    sites.Counters.paths;
  check int "every query attributed" r.Engine.queries sites.Counters.queries

(* unoptimized wc has multiple active functions — attribution must span
   them *)
let test_attribution_multi_function () =
  let p = Option.get (Programs.find "wc") in
  let m = compile_program ~level:Costmodel.o0 p in
  let r = run_profiled ~input_size:3 m in
  let prof = Option.get r.Engine.profile in
  let fns =
    List.sort_uniq compare
      (List.map (fun ((fn, _), _) -> fn) (Obs.Profile.sites prof))
  in
  check bool "several functions attributed" true (List.length fns > 1)

(* profiling off: no collector is allocated or returned *)
let test_profile_off_is_none () =
  let p = Option.get (Programs.find "wc") in
  let m = compile_program p in
  let r =
    Engine.run
      ~config:{ Engine.default_config with input_size = 2; timeout = 30.0 }
      m
  in
  check bool "no profile by default" true (r.Engine.profile = None)

(* ------------- report: shape, golden keys, determinism ------------- *)

let wc_report () =
  let p = Option.get (Programs.find "wc") in
  Profile.profile ~program:"wc" ~level:Costmodel.overify
    ~config:{ Engine.default_config with input_size = 3; timeout = 30.0 }
    p.Programs.source

(* the JSON document's key skeleton, in order — the machine-readable
   contract of `overify profile --json` *)
let test_json_shape () =
  let json = Profile.to_json ~times:false (wc_report ()) in
  let keys =
    [
      "{";
      "\"program\": \"wc\"";
      "\"level\": \"-OVERIFY\"";
      "\"input_size\": 3";
      "\"totals\": {\"paths\":";
      "\"instructions\":";
      "\"forks\":";
      "\"queries\":";
      "\"cache_hits\":";
      "\"solver_time_ms\":";
      "\"complete\": true";
      "\"degradations\": [";
      "\"functions\": [";
      "\"fn\": \"main\"";
      "\"blocks\": [";
      "\"passes\": [";
      "\"pass\": \"inline\"";
      "\"applications\":";
      "\"size_delta\":";
      "}";
    ]
  in
  let rec walk pos = function
    | [] -> ()
    | k :: rest ->
        let found = ref None in
        let nk = String.length k in
        (try
           for i = pos to String.length json - nk do
             if String.sub json i nk = k then begin
               found := Some i;
               raise Exit
             end
           done
         with Exit -> ());
        (match !found with
        | Some i -> walk (i + nk) rest
        | None ->
            Alcotest.failf "JSON shape: key %s missing (after position %d) in:\n%s"
              k pos json)
  in
  walk 0 keys;
  (* times:false excludes the non-deterministic parts *)
  check bool "no latency histogram" false (contains json "query_latency");
  check bool "times zeroed" false (contains json "\"time_ms\": 0.001");
  check bool "solver times zeroed" true
    (contains json "\"solver_time_ms\": 0.000")

(* a degraded (budget-exhausted) run's `overify verify --json` document:
   the structured degradations block is present, and the key skeleton has
   a stable order (goldenable with ~deterministic, which zeroes times) *)
let test_degraded_verify_json_shape () =
  let p = Option.get (Programs.find "wc") in
  let m = compile_program p in
  let r =
    Engine.run
      ~config:
        { Engine.default_config with input_size = 3; timeout = 30.0;
          max_paths = 2 }
      m
  in
  check bool "budget run is degraded" false r.Engine.complete;
  let json = Engine.result_to_json ~deterministic:true r in
  let keys =
    [
      "{";
      "\"paths\": 2";
      "\"instructions\":";
      "\"forks\":";
      "\"queries\":";
      "\"cache_hits\":";
      "\"time_ms\": 0.0";
      "\"solver_time_ms\": 0.0";
      "\"blocks_covered\":";
      "\"blocks_total\":";
      "\"jobs\": 1";
      "\"complete\": false";
      "\"resumed\": false";
      "\"degradations\": [{\"kind\": \"path_budget\", \"where\": ";
      "\"paths\":";
      "\"faults_injected\": []";
      "\"bugs\": [";
      "}";
    ]
  in
  let rec walk pos = function
    | [] -> ()
    | k :: rest -> (
        let found = ref None in
        let nk = String.length k in
        (try
           for i = pos to String.length json - nk do
             if String.sub json i nk = k then begin
               found := Some i;
               raise Exit
             end
           done
         with Exit -> ());
        match !found with
        | Some i -> walk (i + nk) rest
        | None ->
            Alcotest.failf
              "verify JSON shape: key %s missing (after position %d) in:\n%s"
              k pos json)
  in
  walk 0 keys;
  (* and byte-stable across runs *)
  let r2 =
    Engine.run
      ~config:
        { Engine.default_config with input_size = 3; timeout = 30.0;
          max_paths = 2 }
      m
  in
  check string "deterministic document" json
    (Engine.result_to_json ~deterministic:true r2)

(* two independent profile runs produce byte-identical deterministic
   reports (timestamps excluded via times:false) *)
let test_json_deterministic () =
  let j1 = Profile.to_json ~times:false (wc_report ()) in
  let j2 = Profile.to_json ~times:false (wc_report ()) in
  check string "independent runs agree byte-for-byte" j1 j2

(* the human-readable table agrees with the engine totals it prints *)
let test_table_renders () =
  let t = wc_report () in
  let buf = Filename.temp_file "overify_profile" ".txt" in
  Fun.protect ~finally:(fun () -> Sys.remove buf) @@ fun () ->
  Out_channel.with_open_text buf (fun oc -> Profile.print ~out:oc t);
  let s = In_channel.with_open_text buf In_channel.input_all in
  check bool "has header" true (contains s "verification profile: wc");
  check bool "has function column" true (contains s "function");
  check bool "has pass table" true (contains s "compile profile");
  check bool "names a function" true (contains s "main")

(* ------------- trace sink ------------- *)

let test_trace_capture () =
  Obs.Trace.clear ();
  Obs.Trace.start ();
  Fun.protect ~finally:(fun () ->
      Obs.Trace.stop ();
      Obs.Trace.clear ())
  @@ fun () ->
  let p = Option.get (Programs.find "wc") in
  let m = compile_program p in
  ignore (run_profiled ~input_size:2 m);
  Obs.Trace.stop ();
  let evs = Obs.Trace.events () in
  check bool "captured events" true (List.length evs > 0);
  check bool "has engine span" true
    (List.exists (fun e -> e.Obs.Trace.ev_name = "engine.run") evs);
  check bool "has solver spans" true
    (List.exists (fun e -> e.Obs.Trace.ev_name = "solver.check") evs);
  let json = Obs.Trace.to_json () in
  check bool "chrome envelope" true (contains json "\"traceEvents\"");
  check bool "complete events" true (contains json "\"ph\": \"X\"")

(* every pass application of a traced compile is one [opt] event: named
   after the pass, over the application's interval, with the args
   perfbench's serve-mix reads for its opt.* layers *)
let test_trace_opt_events () =
  Obs.Trace.clear ();
  Obs.Trace.start ();
  Fun.protect ~finally:(fun () ->
      Obs.Trace.stop ();
      Obs.Trace.clear ())
  @@ fun () ->
  let wc = Option.get (Programs.find "wc") in
  let prof = Obs.Pass.create () in
  let t0 = Unix.gettimeofday () in
  ignore
    (Pipeline.optimize ~prof Costmodel.overify
       (Frontend.compile_sources
          [ Vclib.for_cost_model Costmodel.overify; wc.Programs.source ]));
  let t1 = Unix.gettimeofday () in
  Obs.Trace.stop ();
  let evs =
    List.filter (fun e -> e.Obs.Trace.ev_cat = "opt") (Obs.Trace.events ())
  in
  let apps = Obs.Pass.apps prof in
  check bool "applications recorded" true (apps <> []);
  check int "one event per application" (List.length apps) (List.length evs);
  List.iter2
    (fun (a : Obs.Pass.app) (e : Obs.Trace.event) ->
      check string "named after the pass" a.Obs.Pass.pa_pass e.Obs.Trace.ev_name;
      check (Alcotest.float 0.0) "lasts the application's time"
        a.Obs.Pass.pa_time e.Obs.Trace.ev_dur;
      check bool "inside the compile" true
        (e.Obs.Trace.ev_ts >= t0 && e.Obs.Trace.ev_ts +. e.Obs.Trace.ev_dur <= t1);
      check
        Alcotest.(list (pair string string))
        "args"
        [
          ("fn", a.Obs.Pass.pa_fn);
          ("size_before", string_of_int a.Obs.Pass.pa_size_before);
          ("size_after", string_of_int a.Obs.Pass.pa_size_after);
          ("changed", string_of_bool a.Obs.Pass.pa_changed);
        ]
        e.Obs.Trace.ev_args)
    apps evs;
  check bool "some application changed code" true
    (List.exists (fun (a : Obs.Pass.app) -> a.Obs.Pass.pa_changed) apps)

let test_trace_disabled_by_default () =
  check bool "trace off" false (Obs.Trace.enabled ());
  (* neither producer records while the sink is off *)
  Obs.Pass.record ~ts:0.0 (app "gvn" "f" 1.0 10 9 true);
  Obs.Span.finish (Obs.Span.start ~trace:"t-off" "ignored");
  check int "no events recorded when off" 0 (List.length (Obs.Trace.events ()))

(* ------------- spans and the flight ring ------------- *)

let test_span_nesting_manual () =
  let open Obs.Flight in
  Obs.Flight.clear ();
  let root = Obs.Span.start ~trace:"t-nest" "root" in
  let child = Obs.Span.start ~parent:root "child" in
  let grandchild = Obs.Span.start ~parent:child "grandchild" in
  Obs.Span.finish grandchild;
  Obs.Span.finish child ~counters:[ ("k", 1.0) ];
  Obs.Span.finish root;
  let rs =
    List.filter (fun r -> r.fr_trace = "t-nest") (Obs.Flight.records ())
  in
  check int "three records" 3 (List.length rs);
  let find l = List.find (fun r -> r.fr_label = l) rs in
  let r = find "root" and c = find "child" and g = find "grandchild" in
  check int "child's parent is root" r.fr_id c.fr_parent;
  check int "grandchild's parent is child" c.fr_id g.fr_parent;
  check int "root has no parent" (-1) r.fr_parent;
  let inside inner outer =
    inner.fr_ts >= outer.fr_ts -. 1e-6
    && inner.fr_ts +. inner.fr_dur <= outer.fr_ts +. outer.fr_dur +. 1e-6
  in
  check bool "child interval within root" true (inside c r);
  check bool "grandchild interval within child" true (inside g c);
  check bool "finish counters kept" true (List.mem_assoc "k" c.fr_counters)

let engine_span_run ~trace () =
  let p = Option.get (Programs.find "wc") in
  let m = compile_program p in
  let root = Obs.Span.start ~trace "request.verify" in
  let r =
    Engine.run
      ~config:
        {
          Engine.default_config with
          input_size = 2;
          timeout = 30.0;
          span = Some root;
        }
      m
  in
  Obs.Span.finish root;
  r

(* the engine.run span carries the run's totals, and every span of the
   request's tree nests inside its parent's interval *)
let test_span_sums_match_engine () =
  let open Obs.Flight in
  Obs.Flight.clear ();
  let r = engine_span_run ~trace:"t-sums" () in
  let rs =
    List.filter (fun x -> x.fr_trace = "t-sums") (Obs.Flight.records ())
  in
  let eng = List.find (fun x -> x.fr_label = "engine.run") rs in
  List.iter
    (fun (k, v) ->
      check bool ("engine span " ^ k) true
        (List.assoc_opt k eng.fr_counters = Some v))
    (result_counters r);
  (* interval nesting holds across the whole recorded tree *)
  let spans = List.filter (fun x -> x.fr_kind = "span") rs in
  let by_id = Hashtbl.create 16 in
  List.iter (fun s -> Hashtbl.replace by_id s.fr_id s) spans;
  List.iter
    (fun s ->
      if s.fr_parent >= 0 then
        match Hashtbl.find_opt by_id s.fr_parent with
        | None -> ()
        | Some p ->
            check bool
              (Printf.sprintf "%s within %s" s.fr_label p.fr_label)
              true
              (s.fr_ts >= p.fr_ts -. 1e-6
              && s.fr_ts +. s.fr_dur <= p.fr_ts +. p.fr_dur +. 1e-6))
    spans

let test_flight_ring_cap () =
  let open Obs.Flight in
  Obs.Flight.clear ();
  Obs.Flight.set_cap 8;
  Fun.protect
    ~finally:(fun () ->
      Obs.Flight.set_cap Obs.Flight.default_cap;
      Obs.Flight.clear ())
  @@ fun () ->
  for i = 1 to 20 do
    Obs.Span.event ~trace:"t-cap" (Printf.sprintf "e%d" i)
  done;
  let rs = Obs.Flight.records () in
  check int "ring capped" 8 (List.length rs);
  check int "evictions counted" 12 (Obs.Flight.dropped ());
  check string "newest record kept" "e20" (List.nth rs 7).fr_label;
  check string "oldest surviving record" "e13" (List.hd rs).fr_label;
  (* a busy trace evicts its own records, not a quiet trace's *)
  Obs.Flight.clear ();
  for i = 1 to 3 do
    Obs.Span.event ~trace:"t-quiet" (Printf.sprintf "q%d" i)
  done;
  for i = 1 to 20 do
    Obs.Span.event ~trace:"t-cap" (Printf.sprintf "e%d" i)
  done;
  check int "every eviction counted" 15 (Obs.Flight.dropped ());
  let labels () = List.map (fun r -> r.fr_label) (Obs.Flight.records ()) in
  check
    Alcotest.(list string)
    "the quiet trace survives, oldest first"
    [ "q1"; "q2"; "q3"; "e16"; "e17"; "e18"; "e19"; "e20" ]
    (labels ());
  (* but the newest records are kept: short traces age out, a trace of
     at most half the ring keeps all of its records, and only a trace
     past half the ring evicts its own oldest, from the middle *)
  Obs.Flight.clear ();
  for i = 1 to 10 do
    Obs.Span.event ~trace:(Printf.sprintf "t-short%d" i) (Printf.sprintf "s%d" i)
  done;
  for i = 1 to 3 do
    Obs.Span.event ~trace:"t-new" (Printf.sprintf "k%d" i)
  done;
  check
    Alcotest.(list string)
    "old short traces age out, the new trace is whole"
    [ "s6"; "s7"; "s8"; "s9"; "s10"; "k1"; "k2"; "k3" ]
    (labels ());
  for i = 1 to 20 do
    Obs.Span.event ~trace:"t-flood" (Printf.sprintf "f%d" i)
  done;
  Obs.Span.event ~trace:"t-last" "l1";
  check
    Alcotest.(list string)
    "a flood pays for itself past half the ring"
    [ "k1"; "k2"; "k3"; "f17"; "f18"; "f19"; "f20"; "l1" ]
    (labels ());
  check int "every eviction counted again" 26 (Obs.Flight.dropped ());
  check int "length is the record count" 8 (Obs.Flight.length ())

(* two identical runs leave the same record sequence once timestamps,
   span ids and wall-clock counters are scrubbed *)
let scrubbed trace =
  let open Obs.Flight in
  List.map
    (fun r ->
      ( r.fr_kind,
        r.fr_label,
        List.filter (fun (k, _) -> k <> "solver_time") r.fr_counters,
        r.fr_args ))
    (List.filter (fun r -> r.fr_trace = trace) (Obs.Flight.records ()))

let test_two_run_trace_deterministic () =
  Obs.Flight.clear ();
  ignore (engine_span_run ~trace:"t-det1" ());
  let a = scrubbed "t-det1" in
  Obs.Flight.clear ();
  ignore (engine_span_run ~trace:"t-det2" ());
  let b = scrubbed "t-det2" in
  check bool "non-trivial trace" true (List.length a > 2);
  check int "same record count" (List.length a) (List.length b);
  check bool "identical modulo timestamps/ids" true (a = b)

let () =
  Alcotest.run "obs"
    [
      ( "hist",
        [
          Alcotest.test_case "observe/sum/max/mean" `Quick test_hist_observe;
          Alcotest.test_case "bucket bounds monotonic" `Quick
            test_hist_buckets_monotonic;
          Alcotest.test_case "percentiles" `Quick test_hist_percentile;
          Alcotest.test_case "merge" `Quick test_hist_merge;
          Alcotest.test_case "overflow bucket reports max" `Quick
            test_hist_overflow;
        ] );
      ( "pass",
        [ Alcotest.test_case "record and rollup" `Quick test_pass_rollup ] );
      ( "profile collector",
        [ Alcotest.test_case "cuts, merge, totals" `Quick test_profile_cuts ]
      );
      ( "attribution",
        [
          Alcotest.test_case "corpus sums to totals" `Slow
            test_counters_agree;
          Alcotest.test_case "sites pinned by profile_digests.tsv" `Slow
            test_profile_digests;
          Alcotest.test_case "resumed run leaves seeded counts out" `Quick
            test_resumed_profile;
          Alcotest.test_case "multi-function (wc@O0)" `Quick
            test_attribution_multi_function;
          Alcotest.test_case "off by default" `Quick test_profile_off_is_none;
        ] );
      ( "report",
        [
          Alcotest.test_case "json shape (golden keys)" `Quick test_json_shape;
          Alcotest.test_case "degraded verify json (golden keys)" `Quick
            test_degraded_verify_json_shape;
          Alcotest.test_case "deterministic across runs" `Quick
            test_json_deterministic;
          Alcotest.test_case "table renders" `Quick test_table_renders;
        ] );
      ( "trace",
        [
          Alcotest.test_case "captures engine/solver spans" `Quick
            test_trace_capture;
          Alcotest.test_case "disabled by default" `Quick
            test_trace_disabled_by_default;
          Alcotest.test_case "opt events are the pass records" `Quick
            test_trace_opt_events;
        ] );
      ( "spans",
        [
          Alcotest.test_case "nesting and intervals" `Quick
            test_span_nesting_manual;
          Alcotest.test_case "per-span sums equal engine totals" `Quick
            test_span_sums_match_engine;
          Alcotest.test_case "flight ring caps and counts drops" `Quick
            test_flight_ring_cap;
          Alcotest.test_case "two runs trace identically (scrubbed)" `Quick
            test_two_run_trace_deterministic;
        ] );
    ]
