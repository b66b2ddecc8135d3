(** Solver-acceleration determinism suite at the engine level.

    The solver's reuse layers (per-component id table, persistent store)
    are pure memoization: turning them off ([OVERIFY_SOLVER_CACHE=0] /
    [solver_cache = Some false]) must not change any verification result
    — verdicts, paths, exit codes, bugs and coverage are byte-identical,
    and the deterministic profile JSON is identical modulo the hit
    counters themselves.  This suite pins that
    contract over the corpus, plus the engine-level persistent-store round
    trip behind [--cache-dir]. *)

module Engine = Overify_symex.Engine
module Frontend = Overify_minic.Frontend
module Costmodel = Overify_opt.Costmodel
module Pipeline = Overify_opt.Pipeline
module Programs = Overify_corpus.Programs
module Vclib = Overify_vclib.Vclib
module Profile = Overify_harness.Profile
module Binfile = Overify_solver.Binfile
module Store = Overify_solver.Store

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

let compile ?(level = Costmodel.overify) (p : Programs.t) =
  (Pipeline.optimize level
     (Frontend.compile_sources [ Vclib.for_cost_model level; p.Programs.source ]))
    .Pipeline.modul

let explore ?(input_size = 2) ?(timeout = 20.0) ?solver_cache ?store m =
  Engine.run
    ~config:
      { Engine.default_config with input_size; timeout; solver_cache; store }
    m

(* ------------- cache on vs off: identical results ------------- *)

let assert_same_verdicts name (off : Engine.result) (on : Engine.result) =
  check int (name ^ ": paths") off.Engine.paths on.Engine.paths;
  check bool (name ^ ": exit codes") true
    (off.Engine.exit_codes = on.Engine.exit_codes);
  check bool (name ^ ": bugs") true (off.Engine.bugs = on.Engine.bugs);
  check int (name ^ ": blocks covered") off.Engine.blocks_covered
    on.Engine.blocks_covered;
  check bool (name ^ ": complete") off.Engine.complete on.Engine.complete;
  check int (name ^ ": queries") off.Engine.queries on.Engine.queries

let test_corpus_cache_on_off () =
  let total_hits = ref 0 in
  List.iter
    (fun (p : Programs.t) ->
      let m = compile p in
      let off = explore ~solver_cache:false m in
      let on = explore ~solver_cache:true m in
      assert_same_verdicts p.Programs.name off on;
      total_hits := !total_hits + on.Engine.cache_hits + on.Engine.hits_canon;
      check bool (p.Programs.name ^ ": fewer or equal raw solves") true
        (on.Engine.component_solves <= off.Engine.component_solves))
    Programs.programs;
  (* the layers must actually be saving work somewhere, not just idle
     (tiny programs at this input size may legitimately see no reuse) *)
  check bool "chain produced hits across the corpus" true (!total_hits > 0)

(* ------------- deterministic profile JSON modulo hit counters ---------- *)

(* scrub the counters the reuse layers are allowed to move: every other
   byte of the deterministic profile report must be identical *)
let volatile_keys =
  [
    "\"cache_hits\": ";
    "\"components\": ";
    "\"component_solves\": ";
    "\"hits_canon\": ";
    "\"hits_store\": ";
  ]

let scrub (s : string) : string =
  let n = String.length s in
  let buf = Buffer.create n in
  let i = ref 0 in
  while !i < n do
    let matched =
      List.find_opt
        (fun k ->
          let lk = String.length k in
          !i + lk <= n && String.sub s !i lk = k)
        volatile_keys
    in
    (match matched with
    | Some k ->
        Buffer.add_string buf k;
        Buffer.add_char buf '_';
        i := !i + String.length k;
        while
          !i < n && (match s.[!i] with '0' .. '9' -> true | _ -> false)
        do
          incr i
        done
    | None ->
        Buffer.add_char buf s.[!i];
        incr i)
  done;
  Buffer.contents buf

let test_profile_json_cache_on_off () =
  let p = Option.get (Programs.find "wc") in
  let json solver_cache =
    Profile.to_json ~times:false
      (Profile.profile ~program:p.Programs.name ~level:Costmodel.overify
         ~config:
           {
             Engine.default_config with
             input_size = 2;
             timeout = 20.0;
             solver_cache = Some solver_cache;
           }
         p.Programs.source)
  in
  let off = scrub (json false) and on = scrub (json true) in
  check bool "deterministic profile identical modulo hit counters" true
    (off = on);
  (* the scrubber itself must be doing something, or the check is vacuous *)
  check bool "scrubber blanked the volatile counters" true
    (String.length off > 0
    && off <> json false
    && on <> json true)

(* ------------- persistent store behind --cache-dir ------------- *)

(* each run loads the store from the directory, as [verify --cache-dir]
   does, and saves it back *)
let test_engine_store_round_trip () =
  Binfile.with_temp_dir "overify_engine_store" @@ fun dir ->
  let p = Option.get (Programs.find "wc") in
  let m = compile p in
  let explore_in_dir () =
    Store.with_dir ~dir (fun store ->
        explore ~solver_cache:true ~store m)
  in
  let cold = explore_in_dir () in
  let warm = explore_in_dir () in
  assert_same_verdicts "wc cold vs warm" cold warm;
  check bool "warm run answered from the store" true
    (warm.Engine.hits_store > 0);
  check bool "warm run solves less than cold" true
    (warm.Engine.component_solves < cold.Engine.component_solves
    || cold.Engine.component_solves = 0)

let () =
  Alcotest.run "solver-cache"
    [
      ( "determinism",
        [
          Alcotest.test_case "corpus: cache on vs off" `Quick
            test_corpus_cache_on_off;
          Alcotest.test_case "profile JSON modulo hit counters" `Quick
            test_profile_json_cache_on_off;
        ] );
      ( "store",
        [
          Alcotest.test_case "engine round trip via cache_dir" `Quick
            test_engine_store_round_trip;
        ] );
    ]
