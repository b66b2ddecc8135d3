(** Parallel-exploration determinism suite.

    The engine's contract: for a run that completes exploration, [paths],
    [exit_codes], [bugs] and [blocks_covered] are independent of the
    searcher and the worker count — [`Dfs], [`Bfs] and [`Parallel n] agree
    exactly.  This suite checks the contract over the whole corpus and over
    handcrafted buggy programs.

    The worker count comes from the [OVERIFY_JOBS] environment variable
    (default 4), so the dune smoke target can run the same suite at 2. *)

module Engine = Overify_symex.Engine
module Frontend = Overify_minic.Frontend
module Costmodel = Overify_opt.Costmodel
module Pipeline = Overify_opt.Pipeline
module Programs = Overify_corpus.Programs
module Vclib = Overify_vclib.Vclib

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

let jobs =
  match Sys.getenv_opt "OVERIFY_JOBS" with
  | Some s -> (match int_of_string_opt s with Some j when j >= 1 -> j | _ -> 4)
  | None -> 4

let compile ?(level = Costmodel.overify) (p : Programs.t) =
  (Pipeline.optimize level
     (Frontend.compile_sources [ Vclib.for_cost_model level; p.Programs.source ]))
    .Pipeline.modul

let explore searcher ?(input_size = 2) ?(timeout = 20.0) m =
  Engine.run
    ~config:{ Engine.default_config with input_size; timeout; searcher }
    m

(** Compare two complete results field by field, with readable failures. *)
let assert_agree name (a : Engine.result) (b : Engine.result) ~what =
  check int (Printf.sprintf "%s: paths (%s)" name what) a.Engine.paths
    b.Engine.paths;
  check int
    (Printf.sprintf "%s: exit count (%s)" name what)
    (List.length a.Engine.exit_codes)
    (List.length b.Engine.exit_codes);
  List.iteri
    (fun i ((ia, ca), (ib, cb)) ->
      if ia <> ib || ca <> cb then
        Alcotest.failf "%s: exit_codes[%d] differ (%s): (%S,%Ld) vs (%S,%Ld)"
          name i what ia ca ib cb)
    (List.combine a.Engine.exit_codes b.Engine.exit_codes);
  check int
    (Printf.sprintf "%s: bug count (%s)" name what)
    (List.length a.Engine.bugs) (List.length b.Engine.bugs);
  List.iter2
    (fun (x : Engine.bug) (y : Engine.bug) ->
      if x <> y then
        Alcotest.failf "%s: bugs differ (%s): %s@%s %S vs %s@%s %S" name what
          x.Engine.kind x.Engine.at_function x.Engine.input y.Engine.kind
          y.Engine.at_function y.Engine.input)
    a.Engine.bugs b.Engine.bugs;
  check int
    (Printf.sprintf "%s: blocks covered (%s)" name what)
    a.Engine.blocks_covered b.Engine.blocks_covered

(* ------------- whole-corpus determinism ------------- *)

(* every corpus program that completes exploration must report identical
   results under DFS, BFS and the parallel scheduler *)
let test_corpus_determinism () =
  let skipped = ref 0 in
  List.iter
    (fun (p : Programs.t) ->
      let m = compile p in
      let dfs = explore `Dfs m in
      if not dfs.Engine.complete then incr skipped
      else begin
        let bfs = explore `Bfs m in
        let par = explore (`Parallel jobs) m in
        check bool
          (Printf.sprintf "%s: bfs also completes" p.Programs.name)
          true bfs.Engine.complete;
        check bool
          (Printf.sprintf "%s: parallel also completes" p.Programs.name)
          true par.Engine.complete;
        check int
          (Printf.sprintf "%s: parallel used %d workers" p.Programs.name jobs)
          jobs par.Engine.jobs;
        assert_agree p.Programs.name dfs bfs ~what:"dfs vs bfs";
        assert_agree p.Programs.name dfs par
          ~what:(Printf.sprintf "dfs vs parallel %d" jobs)
      end)
    Programs.programs;
  (* the corpus is small enough that everything completes at 2 input bytes;
     if that regresses we want to hear about it *)
  check int "no program skipped as incomplete" 0 !skipped

(* ------------- handcrafted bug programs ------------- *)

(* multiple distinct bugs on different paths: dedup and the smallest-witness
   rule must make the report schedule-independent *)
let buggy_src = {|
int helper(int c) {
  int arr[4];
  if (c == 'X') return arr[7];      /* out of bounds */
  return c;
}
int main(void) {
  char buf[3];
  int n = read_input(buf, 3);
  int acc = 0;
  for (int i = 0; i < n; i++) {
    int c = (int)(unsigned char)buf[i];
    if (c == 'D') acc += 10 / (c - 'D');   /* division by zero */
    acc += helper(c);
  }
  return acc & 0xff;
}
|}

let compile_src src =
  (Pipeline.optimize Costmodel.overify
     (Frontend.compile_sources [ Vclib.for_cost_model Costmodel.overify; src ]))
    .Pipeline.modul

let test_buggy_program_determinism () =
  let m = compile_src buggy_src in
  let dfs = explore `Dfs ~input_size:2 m in
  let bfs = explore `Bfs ~input_size:2 m in
  let par = explore (`Parallel jobs) ~input_size:2 m in
  check bool "dfs complete" true dfs.Engine.complete;
  check bool "bfs complete" true bfs.Engine.complete;
  check bool "par complete" true par.Engine.complete;
  check bool "bugs found" true (List.length dfs.Engine.bugs >= 2);
  assert_agree "buggy" dfs bfs ~what:"dfs vs bfs";
  assert_agree "buggy" dfs par ~what:"dfs vs parallel"

(* parallel runs are reproducible run-to-run, not just seq-vs-par *)
let test_parallel_reproducible () =
  let m = compile_src buggy_src in
  let r1 = explore (`Parallel jobs) ~input_size:2 m in
  let r2 = explore (`Parallel jobs) ~input_size:2 m in
  assert_agree "repeat" r1 r2 ~what:"parallel vs parallel"

(* `Parallel 1 is the work-sharing scheduler on one domain — same results *)
let test_parallel_one_worker () =
  let m = compile_src buggy_src in
  let dfs = explore `Dfs ~input_size:2 m in
  let par1 = explore (`Parallel 1) ~input_size:2 m in
  check int "jobs recorded" 1 par1.Engine.jobs;
  assert_agree "par1" dfs par1 ~what:"dfs vs parallel 1"

(* ------------- per-worker stats aggregation ------------- *)

(* the reported totals are defined as the sum of the per-worker solver and
   executor counters; [result.worker_stats] exposes exactly those per-worker
   values, so the sums must agree — exactly, including solver_time, since
   both are the same left fold over the same worker list *)
let sum_stats f (stats : Engine.worker_stat list) =
  List.fold_left (fun acc w -> acc + f w) 0 stats

let assert_worker_stats_sum name (r : Engine.result) =
  check int
    (name ^ ": instructions = sum of workers")
    r.Engine.instructions
    (sum_stats (fun w -> w.Engine.w_instructions) r.Engine.worker_stats);
  check int
    (name ^ ": forks = sum of workers")
    r.Engine.forks
    (sum_stats (fun w -> w.Engine.w_forks) r.Engine.worker_stats);
  check int
    (name ^ ": queries = sum of workers")
    r.Engine.queries
    (sum_stats (fun w -> w.Engine.w_queries) r.Engine.worker_stats);
  check int
    (name ^ ": cache_hits = sum of workers")
    r.Engine.cache_hits
    (sum_stats (fun w -> w.Engine.w_cache_hits) r.Engine.worker_stats);
  (* the solver acceleration layers report per-worker too; their totals
     are the same sums *)
  List.iter
    (fun (what, total, get) ->
      check int
        (Printf.sprintf "%s: %s = sum of workers" name what)
        total
        (sum_stats get r.Engine.worker_stats))
    [
      ("components", r.Engine.components, fun w -> w.Engine.w_components);
      ( "component_solves",
        r.Engine.component_solves,
        fun w -> w.Engine.w_component_solves );
      ("hits_canon", r.Engine.hits_canon, fun w -> w.Engine.w_hits_canon);
      ("hits_subset", r.Engine.hits_subset, fun w -> w.Engine.w_hits_subset);
      ("hits_store", r.Engine.hits_store, fun w -> w.Engine.w_hits_store);
    ];
  let t =
    List.fold_left
      (fun acc (w : Engine.worker_stat) -> acc +. w.Engine.w_solver_time)
      0.0 r.Engine.worker_stats
  in
  if t <> r.Engine.solver_time then
    Alcotest.failf "%s: solver_time %.9f <> worker sum %.9f" name
      r.Engine.solver_time t

let test_worker_stats_sum () =
  let m = compile_src buggy_src in
  let par = explore (`Parallel jobs) ~input_size:2 m in
  check int "one stat row per worker" jobs
    (List.length par.Engine.worker_stats);
  assert_worker_stats_sum "parallel" par;
  (* sequential searchers report the same shape with a single row *)
  let dfs = explore `Dfs ~input_size:2 m in
  check int "sequential run has one worker row" 1
    (List.length dfs.Engine.worker_stats);
  assert_worker_stats_sum "dfs" dfs;
  (* and a corpus program, for counters big enough to catch double counting *)
  let wc = compile (Option.get (Programs.find "wc")) in
  let r = explore (`Parallel jobs) ~input_size:3 wc in
  assert_worker_stats_sum "wc" r

(* budgets are enforced globally: a tiny path budget stops a parallel run
   and marks it incomplete, same as sequential *)
let test_parallel_budget () =
  let p = Option.get (Programs.find "wc") in
  let m = compile p in
  let r =
    Engine.run
      ~config:
        {
          Engine.default_config with
          input_size = 3;
          timeout = 20.0;
          max_paths = 2;
          searcher = `Parallel jobs;
        }
      m
  in
  check bool "incomplete under tiny budget" false r.Engine.complete;
  check bool "did not blow the budget by much" true (r.Engine.paths <= 2 + jobs)

let () =
  Alcotest.run "parallel"
    [
      ( "determinism",
        [
          Alcotest.test_case
            (Printf.sprintf "corpus: dfs = bfs = parallel %d" jobs)
            `Slow test_corpus_determinism;
          Alcotest.test_case "buggy program agrees across searchers" `Quick
            test_buggy_program_determinism;
          Alcotest.test_case "parallel runs reproducible" `Quick
            test_parallel_reproducible;
          Alcotest.test_case "single-worker parallel" `Quick
            test_parallel_one_worker;
        ] );
      ( "stats",
        [
          Alcotest.test_case "worker stats sum to totals" `Quick
            test_worker_stats_sum;
        ] );
      ( "budgets",
        [ Alcotest.test_case "global path budget" `Quick test_parallel_budget ] );
    ]
