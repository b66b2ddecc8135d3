(** Summary-vs-inline differential battery and property suite for the
    compositional layer (lib/summary + Summarize + the executor's call-site
    instantiation).

    The soundness claim under test: with [config.summaries] on, every
    verdict — paths, exit codes, bugs, witnesses, coverage — is
    byte-identical to inline exploration; only effort counters move.  The
    claim is only meaningful for complete runs (a wall-clock truncation
    cuts the two explorations at different points), so every differential
    check here gates on [complete] and counts truncated cells as skipped.

    Beyond the differential battery: QCheck properties over random pure
    MiniC programs (shared {!Fuzzgen} generator) for agreement, fingerprint
    stability and the invalidation cone; store round-trip/corruption
    robustness; chaos schedules with summaries on; parallel determinism;
    and the recursion-is-Opaque gate. *)

module Engine = Overify_symex.Engine
module Summary = Overify_summary.Summary
module Callgraph = Overify_ir.Callgraph
module Ir = Overify_ir.Ir
module Frontend = Overify_minic.Frontend
module Costmodel = Overify_opt.Costmodel
module Pipeline = Overify_opt.Pipeline
module Programs = Overify_corpus.Programs
module Store = Overify_solver.Store
module Binfile = Overify_solver.Binfile
module H = Overify_harness

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int
let string = Alcotest.string

let compile level src =
  (Pipeline.optimize level (Frontend.compile_source src)).Pipeline.modul

(** [cache_dir]: load the store from that directory before the run and
    save it after, as [verify --cache-dir] does. *)
let run ?(input_size = 2) ?(timeout = 30.0) ?(summaries = false) ?(jobs = 1)
    ?cache_dir m =
  let run store =
    Engine.run
      ~config:
        {
          Engine.default_config with
          input_size;
          timeout;
          summaries;
          searcher = `Parallel jobs;
          store;
        }
      m
  in
  match cache_dir with
  | None -> run None
  | Some dir -> Store.with_dir ~dir (fun store -> run (Some store))

let det_json r = Engine.result_to_json ~deterministic:true r

(* ------------- the corpus differential battery ------------- *)

(* every corpus program x {O0, O3, OVERIFY} x {summaries off, on}: for
   complete runs the deterministic JSON (verdicts only: paths, exit codes,
   bugs, witnesses, coverage) must be byte-identical *)
let test_corpus_differential () =
  let levels = [ Costmodel.o0; Costmodel.o3; Costmodel.overify ] in
  let compared = ref 0 and skipped = ref 0 in
  List.iter
    (fun (p : Programs.t) ->
      List.iter
        (fun (level : Costmodel.t) ->
          let c = H.Experiment.compile level p in
          let off = run ~summaries:false c.H.Experiment.modul in
          let on = run ~summaries:true c.H.Experiment.modul in
          if off.Engine.complete && on.Engine.complete then begin
            incr compared;
            let a = det_json off and b = det_json on in
            if a <> b then
              Alcotest.failf
                "%s at %s: summaries on and off disagree\n--- off ---\n%s\n\
                 --- on ---\n%s"
                p.Programs.name level.Costmodel.name a b
          end
          else incr skipped)
        levels)
    Programs.programs;
  (* the suite must actually compare most of the corpus — if nearly
     everything times out the battery is vacuous *)
  check bool
    (Printf.sprintf "compared %d cells (%d wall-clock truncated)" !compared
       !skipped)
    true
    (!compared > 2 * !skipped)

(* the compositional mode must actually fire on the corpus: a program
   linking the vclib helpers instantiates summaries at call sites *)
let test_mode_is_not_vacuous () =
  let p = Option.get (Programs.find "wc") in
  let c = H.Experiment.compile Costmodel.o0 p in
  let r = run ~summaries:true c.H.Experiment.modul in
  check bool "run completed" true r.Engine.complete;
  check bool "summaries were computed" true (r.Engine.summary_computed > 0);
  check bool "summaries were instantiated at call sites" true
    (r.Engine.summary_instantiated > 0)

(* ------------- QCheck properties over random pure programs ------------- *)

let prop_on_agrees_with_off =
  QCheck2.Test.make ~name:"random pure programs: summaries on = off"
    ~count:12
    QCheck2.Gen.(int_range 1 100_000)
    (fun seed ->
      let (src, _) = Fuzzgen.gen_pure_program seed in
      let m = compile Costmodel.o0 src in
      let off = run ~timeout:15.0 ~summaries:false m in
      let on = run ~timeout:15.0 ~summaries:true m in
      if not (off.Engine.complete && on.Engine.complete) then true
      else if det_json off <> det_json on then
        QCheck2.Test.fail_reportf
          "seed %d: summaries on and off disagree\n--- off ---\n%s\n--- on \
           ---\n%s\n--- program ---\n%s"
          seed (det_json off) (det_json on) src
      else true)

(* does [caller] transitively call [target]? (the fingerprint cone of
   [target] is exactly [target] plus the functions for which this holds) *)
let reaches m caller target =
  let seen = ref [] in
  let rec go cur =
    cur = target
    || (not (List.mem cur !seen)
       && begin
            seen := cur :: !seen;
            match Ir.find_func m cur with
            | None -> false
            | Some f -> List.exists go (Callgraph.callees m f)
          end)
  in
  go caller

let fn_names (m : Ir.modul) = List.map (fun (f : Ir.func) -> f.Ir.fname) m.Ir.funcs

let prop_fingerprint_stability_and_cone =
  QCheck2.Test.make
    ~name:"fingerprints: stable across compiles, edit changes exactly the cone"
    ~count:25
    QCheck2.Gen.(int_range 1 100_000)
    (fun seed ->
      let (src, helpers) = Fuzzgen.gen_pure_program seed in
      let m1 = compile Costmodel.o0 src in
      let m2 = compile Costmodel.o0 src in
      let f1 = Summary.fingerprints m1 and f2 = Summary.fingerprints m2 in
      List.iter
        (fun fn ->
          if Hashtbl.find_opt f1 fn <> Hashtbl.find_opt f2 fn then
            QCheck2.Test.fail_reportf
              "seed %d: fingerprint of %s differs across two compiles of \
               identical source"
              seed fn)
        (fn_names m1);
      (* edit one helper: exactly its cone (itself + transitive callers)
         must change fingerprint *)
      let fn = List.nth helpers (abs seed mod List.length helpers) in
      let m3 = Summary.edit_function m1 fn in
      let f3 = Summary.fingerprints m3 in
      List.iter
        (fun g ->
          let changed = Hashtbl.find_opt f3 g <> Hashtbl.find_opt f1 g in
          let in_cone = reaches m1 g fn in
          if changed && not in_cone then
            QCheck2.Test.fail_reportf
              "seed %d: editing %s changed the fingerprint of %s, which is \
               outside its cone"
              seed fn g
          else if in_cone && not changed then
            QCheck2.Test.fail_reportf
              "seed %d: editing %s left the fingerprint of %s (in its cone) \
               unchanged"
              seed fn g)
        (fn_names m1);
      true)

let prop_invalidation_cone_cache =
  QCheck2.Test.make
    ~name:"editing one function cache-hits every summary outside its cone"
    ~count:6
    QCheck2.Gen.(int_range 1 100_000)
    (fun seed ->
      let (src, helpers) = Fuzzgen.gen_pure_program seed in
      let m = compile Costmodel.o0 src in
      let cands = Summary.candidates m in
      if cands = [] then true
      else
        Binfile.with_temp_dir "overify_test_summary" (fun dir ->
            let cold = run ~timeout:15.0 ~summaries:true ~cache_dir:dir m in
            (* transient opacities (solver timeout, coverage attribution)
               are never persisted, so they re-compute on every run; the
               warm run measures that baseline so the edited run is only
               charged for what the edit itself invalidated *)
            let warm = run ~timeout:15.0 ~summaries:true ~cache_dir:dir m in
            let transient = warm.Engine.summary_computed in
            let fn = List.nth helpers (abs seed mod List.length helpers) in
            let m' = Summary.edit_function m fn in
            let edited =
              run ~timeout:15.0 ~summaries:true ~cache_dir:dir m'
            in
            let cone = List.filter (fun c -> reaches m c fn) cands in
            if edited.Engine.summary_computed > List.length cone + transient
            then
              QCheck2.Test.fail_reportf
                "seed %d: editing %s rebuilt %d summaries but its cone has \
                 only %d candidates (+%d transient)"
                seed fn edited.Engine.summary_computed (List.length cone)
                transient
            else if
              edited.Engine.summary_cached
              < warm.Engine.summary_cached - List.length cone
            then
              QCheck2.Test.fail_reportf
                "seed %d: editing %s cache-hit %d summaries; a warm run \
                 cache-hits %d and the cone only covers %d (cold computed %d)"
                seed fn edited.Engine.summary_cached
                warm.Engine.summary_cached (List.length cone)
                cold.Engine.summary_computed
            else true))

(* ------------- persistence robustness ------------- *)

(* warm re-run against the same store: nothing recomputed, everything
   cache-hit, verdicts byte-identical *)
let test_store_round_trip () =
  let p = Option.get (Programs.find "wc") in
  let c = H.Experiment.compile Costmodel.o0 p in
  Binfile.with_temp_dir "overify_test_summary" (fun dir ->
      let cold = run ~summaries:true ~cache_dir:dir c.H.Experiment.modul in
      let warm = run ~summaries:true ~cache_dir:dir c.H.Experiment.modul in
      check bool "cold computed summaries" true
        (cold.Engine.summary_computed > 0);
      check int "warm recomputed nothing" 0 warm.Engine.summary_computed;
      check bool "warm answered from the store" true
        (warm.Engine.summary_cached > 0);
      check string "verdicts identical across the round trip" (det_json cold)
        (det_json warm))

let test_decode_robustness () =
  (* a decodable blob round-trips *)
  let s = Summary.Opaque "too many traces" in
  (match Summary.decode (Summary.encode s) with
  | Some (Summary.Opaque r) -> check string "opaque reason survives" "too many traces" r
  | _ -> Alcotest.fail "encode/decode lost an Opaque summary");
  (* garbage and truncation are misses, never crashes *)
  check bool "garbage decodes to None" true (Summary.decode "garbage" = None);
  check bool "empty decodes to None" true (Summary.decode "" = None);
  let enc = Summary.encode s in
  let trunc = String.sub enc 0 (String.length enc / 2) in
  check bool "truncated blob decodes to None" true (Summary.decode trunc = None)

(* flipping any byte of the store file must never crash the load, and a
   verification against the damaged store still completes with the same
   verdicts (summaries silently recomputed) *)
let test_store_corruption_is_a_miss () =
  let p = Option.get (Programs.find "echo") in
  let c = H.Experiment.compile Costmodel.o0 p in
  Binfile.with_temp_dir "overify_test_summary" (fun dir ->
      let clean = run ~summaries:true ~cache_dir:dir c.H.Experiment.modul in
      let file =
        match Array.to_list (Sys.readdir dir) with
        | [ f ] -> Filename.concat dir f
        | l ->
            Alcotest.failf "expected exactly one store file, got %d"
              (List.length l)
      in
      let original = In_channel.with_open_bin file In_channel.input_all in
      let len = String.length original in
      let positions = [ 0; 5; 21; len / 2; len - 1 ] in
      List.iter
        (fun pos ->
          let b = Bytes.of_string original in
          Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0xff));
          Out_channel.with_open_bin file (fun oc ->
              Out_channel.output_bytes oc b);
          (* the load must absorb the damage... *)
          let st = Store.load ~dir () in
          ignore (Store.loaded st);
          (* ...and verification against it must still agree with clean *)
          let r = run ~summaries:true ~cache_dir:dir c.H.Experiment.modul in
          if r.Engine.complete && clean.Engine.complete then
            check string
              (Printf.sprintf "verdicts unchanged after flip at byte %d" pos)
              (det_json clean) (det_json r))
        positions;
      (* truncated garbage loads as an empty store *)
      Out_channel.with_open_bin file (fun oc -> output_string oc "garbage");
      check int "truncated garbage loads empty" 0 (Store.loaded (Store.load ~dir ()));
      (* right magic, wrong version: also empty *)
      Out_channel.with_open_bin file (fun oc ->
          output_string oc "OVERIFY-SOLVER-STORE";
          output_binary_int oc 999_999);
      check int "version mismatch loads empty" 0
        (Store.loaded (Store.load ~dir ())))

(* ------------- chaos: fault schedules with summaries on ------------- *)

(* summaries must not weaken the hardening contract: zero crashes,
   deterministic repeats, degraded verdicts a subset of clean.  kill/resume
   is off — a kill firing during summary construction precedes the first
   checkpoint, which the chaos harness documents as incompatible. *)
let test_chaos_with_summaries () =
  let p = Option.get (Programs.find "wc") in
  let json = Filename.temp_file "overify_chaos_summary" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove json with Sys_error _ -> ())
    (fun () ->
      let r =
        H.Chaos.run ~input_size:2 ~timeout:60.0 ~programs:[ p ]
          ~kill_resume:false ~summaries:true ~json_path:json ()
      in
      check int "no hardening-contract violations with summaries on" 0
        r.H.Chaos.failures)

(* ------------- parallel determinism ------------- *)

let test_jobs2_determinism () =
  let p = Option.get (Programs.find "wc") in
  let c = H.Experiment.compile Costmodel.o0 p in
  let seq = run ~timeout:60.0 ~summaries:true ~jobs:1 c.H.Experiment.modul in
  let par = run ~timeout:60.0 ~summaries:true ~jobs:2 c.H.Experiment.modul in
  check bool "both runs complete" true
    (seq.Engine.complete && par.Engine.complete);
  (* the "jobs" field reports the worker count and differs by
     construction; everything else must match byte-for-byte *)
  let normalize j =
    let needle = "\"jobs\": " in
    match
      let rec find i =
        if i + String.length needle > String.length j then None
        else if String.sub j i (String.length needle) = needle then Some i
        else find (i + 1)
      in
      find 0
    with
    | None -> j
    | Some i ->
        let k = ref (i + String.length needle) in
        while !k < String.length j && j.[!k] >= '0' && j.[!k] <= '9' do
          incr k
        done;
        String.sub j 0 (i + String.length needle)
        ^ "0"
        ^ String.sub j !k (String.length j - !k)
  in
  check string "1 and 2 worker domains agree byte-for-byte"
    (normalize (det_json seq))
    (normalize (det_json par))

(* ------------- recursion is Opaque ------------- *)

let test_mutual_recursion_is_opaque () =
  let src =
    String.concat "\n"
      [
        "int even(int n) { if (n == 0) { return 1; } return odd(n - 1); }";
        "int odd(int n) { if (n == 0) { return 0; } return even(n - 1); }";
        "int main(void) { return even(__input(0) & 7) + odd(__input(1) & 3); }";
      ]
  in
  let m = compile Costmodel.o0 src in
  let cyc = Callgraph.cyclic m in
  check bool "even is cyclic" true (Callgraph.StrSet.mem "even" cyc);
  check bool "odd is cyclic" true (Callgraph.StrSet.mem "odd" cyc);
  let cands = Summary.candidates m in
  check bool "neither recursive function is a candidate" true
    (not (List.mem "even" cands) && not (List.mem "odd" cands));
  (* and the engine still verifies it identically either way *)
  let off = run ~summaries:false m and on = run ~summaries:true m in
  check bool "both complete" true (off.Engine.complete && on.Engine.complete);
  check string "verdicts agree" (det_json off) (det_json on);
  check int "nothing was instantiated" 0 on.Engine.summary_instantiated

let () =
  Alcotest.run "summary"
    [
      ( "differential",
        [
          Alcotest.test_case "corpus x levels: on = off (byte-identical)"
            `Quick test_corpus_differential;
          Alcotest.test_case "mode is not vacuous" `Quick
            test_mode_is_not_vacuous;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_on_agrees_with_off;
          QCheck_alcotest.to_alcotest prop_fingerprint_stability_and_cone;
          QCheck_alcotest.to_alcotest prop_invalidation_cone_cache;
        ] );
      ( "persistence",
        [
          Alcotest.test_case "store round trip" `Quick test_store_round_trip;
          Alcotest.test_case "decode robustness" `Quick test_decode_robustness;
          Alcotest.test_case "corruption is a miss" `Quick
            test_store_corruption_is_a_miss;
        ] );
      ( "hardening",
        [
          Alcotest.test_case "chaos schedules with summaries on" `Quick
            test_chaos_with_summaries;
          Alcotest.test_case "2-domain determinism" `Quick
            test_jobs2_determinism;
        ] );
      ( "recursion",
        [
          Alcotest.test_case "mutual recursion is opaque" `Quick
            test_mutual_recursion_is_opaque;
        ] );
    ]
