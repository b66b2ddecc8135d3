(** Top-level symbolic-execution engine: explores all paths of a module's
    [main] for a given symbolic input size, under time/path budgets, and
    reports the statistics the paper's evaluation uses. *)

type config = {
  input_size : int;      (** number of symbolic input bytes *)
  max_paths : int;       (** stop after completing this many paths *)
  max_insts : int;       (** total dynamic instruction budget *)
  timeout : float;       (** wall-clock seconds (also bounds solver work) *)
  searcher : [ `Dfs | `Bfs | `Parallel of int ];
      (** Every searcher runs one work-sharing loop: [n] workers over one
          shared frontier, a stack except under [`Bfs] (a queue).
          [`Dfs]/[`Bfs] use one worker; [`Parallel n] runs the DFS
          discipline on [n] OCaml domains, each worker owning a private
          solver context, with budgets enforced globally.  [`Parallel 1]
          is therefore [`Dfs], byte for byte. *)
  profile : bool;
      (** attribute cost (instructions, forks, solver queries and time,
          path completions) to (function, block) sites; the merged
          attribution is returned in [result.profile].  Off by default —
          the un-instrumented run pays only a per-site [option] branch. *)
  summaries : bool;
      (** compositional mode ([verify --summaries] /
          [OVERIFY_SUMMARIES=1]): before exploring, build per-function
          symbolic summaries bottom-up over the call graph — or load them
          from the persistent store, keyed by a structural fingerprint
          that hashes each function's body plus its callees'
          fingerprints, so editing one function re-verifies only its
          callgraph cone — and instantiate them at call sites instead of
          inlining.  Verdicts ([paths], [bugs], [exit_codes],
          [blocks_covered]) are identical to inline exploration (the
          summary-vs-inline differential battery in test_summary checks
          this byte-for-byte); only effort counters move.  Functions the
          summarizer cannot capture faithfully (recursion, symbolic
          memory offsets, budget blow-ups) stay [Opaque] and are explored
          inline.  Defaults to the [OVERIFY_SUMMARIES] environment
          variable. *)
  solver_cache : bool option;
      (** enable the solver's reuse layers (the per-component id table,
          then the attached store);
          [None] defers to [OVERIFY_SOLVER_CACHE] (default on).  The
          determinism contract makes answers identical either way — only
          hit counters and solve counts move. *)
  store : Overify_solver.Store.t option;
      (** a cross-run solver store, shared by every worker: repeated
          runs, other levels and [bench] sweeps reuse each other's
          canonical verdicts and function summaries through it.  The
          engine reads and adds; the owner loads and saves it
          ([verify --cache-dir] opens it with
          {!Overify_solver.Store.with_dir}, the [overify serve] daemon
          keeps one warm store across requests). *)
  faults : Overify_fault.Fault.t option;
      (** injected-fault schedule (see {!Overify_fault.Fault}): solver
          timeouts, store write corruption, allocation exhaustion, worker
          crashes and kills fire deterministically at scheduled visit
          counts.  [None] (the default) injects nothing and costs one
          branch per site. *)
  checkpoint_dir : string option;
      (** write periodic atomic frontier snapshots to this directory
          (one-worker runs only; [`Parallel n] with [n > 1] never
          snapshots but can still [resume]), enabling kill/resume *)
  checkpoint_every : int;
      (** snapshot cadence in completed paths (default 64); the snapshot
          is cut between frontier pops, so it partitions the path tree
          exactly *)
  resume : bool;
      (** seed the run from [checkpoint_dir]'s snapshot if one exists and
          its fingerprint (program, input size) matches;
          otherwise start fresh.  A resumed-then-completed run reports
          the same [paths]/[bugs]/[exit_codes]/[blocks_covered] as an
          uninterrupted one. *)
  span : Overify_obs.Obs.Span.t option;
      (** parent span for end-to-end request tracing (the [overify serve]
          daemon opens one per admitted request): the run nests an
          ["engine.run"] child with ["summary.build"], per-worker
          ["symex.worker<i>"] and per-query ["solver.check"] descendants
          in the flight ring / trace sink.  Each worker span closes with
          its worker's {!Overify_obs.Obs.Counters} record, and the
          [result] totals are the sum of those records, so per-span sums
          equal engine totals exactly as the profile's per-site sums do.
          [None] (the default) opens ["engine.run"] as a root span while
          {!Overify_obs.Obs.Trace} is collecting (CLI [--trace]), so CLI
          traces carry the same tree; otherwise it traces nothing and
          costs one [option] branch per site. *)
  cancel : Overify_fault.Cancel.t option;
      (** cooperative cancellation token (the [overify serve] daemon
          threads each request's admission-deadline token here): checked
          at worklist pops, at the periodic budget points, around the
          summary build and — via the per-worker solver contexts —
          before every solver query.  A set or past-deadline token stops
          exploration promptly; the run still returns, with every
          verdict proved so far plus a ["deadline_exceeded"] degradation
          carrying the cancellation reason.  Store/summary caches stay
          consistent (entries are individually complete), so a
          cancelled-then-retried run is byte-identical to an uncancelled
          one under [result_to_json ~deterministic].  [None] (the
          default) cancels nothing. *)
}

val default_config : config

type bug = {
  kind : string;         (** e.g. "division by zero" *)
  input : string;        (** concrete input reproducing the bug *)
  at_function : string;
}

type degradation = {
  d_kind : string;
      (** what gave way: [path_budget] / [inst_budget] / [wall_clock]
          (budgets), [solver_timeout] (one query gave up, its path is
          unknown), [worker_crash] (contained exception, real or
          injected), [executor_error] (unsupported construct),
          [alloc_exhausted] (allocation budget, injected),
          [path_dropped] (executor abandoned a path, e.g. symbolic
          pointer beyond the ITE cap), [deadline_exceeded] (cooperative
          cancellation via [config.cancel]; [d_where] is the
          cancellation reason) *)
  d_where : string;  (** site/reason detail; may be empty for budgets *)
  d_paths : int;
      (** paths affected.  For a stop (budgets, [deadline_exceeded]) a
          lower bound: the states left on the frontier plus the states
          workers abandoned mid-run when the stop fired *)
}

(** The counters from [instructions] to [summary_opaque] are the fields
    of the sum of the workers' {!Overify_obs.Obs.Counters} records
    (resumed runs included); per-worker values are the counters of the
    ["symex.worker<i>"] spans when [config.span] is set. *)
type result = {
  paths : int;           (** completed (exited) paths *)
  bugs : bug list;
      (** deduplicated by (kind, function), smallest witness kept, sorted *)
  instructions : int;    (** dynamic instructions over all paths *)
  forks : int;
  queries : int;         (** solver queries issued *)
  cache_hits : int;      (** queries answered without any blasting *)
  solver_time : float;   (** seconds in blasting + SAT *)
  components : int;      (** independent subproblems across all queries *)
  component_solves : int;
      (** raw blast+SAT invocations — what the acceleration chain saves *)
  hits_canon : int;
      (** solver cache hits per layer: the per-component id table, *)
  hits_store : int;      (** and the persistent cross-run store *)
  summary_instantiated : int;
      (** call sites answered by instantiating a function summary *)
  summary_opaque : int;
      (** call sites whose callee summary was [Opaque] (explored inline) *)
  summary_computed : int;  (** summaries built fresh this run *)
  summary_cached : int;    (** summaries loaded from the persistent store *)
  time : float;          (** total verification wall time *)
  complete : bool;
      (** derived: [degradations = []] — exploration covered every path *)
  degradations : degradation list;
      (** the structured reasons a run is incomplete — the graceful-
          degradation ladder.  Grouped by (kind, where) with summed path
          counts and canonically sorted; empty iff [complete]. *)
  faults_injected : (string * int) list;
      (** per-kind injected-fault counts when [config.faults] was set
          (all kinds, zeros included, fixed order); [[]] otherwise *)
  resumed : bool;        (** this run was seeded from a checkpoint *)
  exit_codes : (string * int64) list;
      (** per completed path: a concrete witness input and its exit code,
          sorted canonically *)
  blocks_covered : int;  (** basic blocks reached on some explored path *)
  blocks_total : int;    (** blocks of the functions reachable from main *)
  jobs : int;            (** worker domains used (1 for [`Dfs]/[`Bfs]) *)
  profile : Overify_obs.Obs.Profile.t option;
      (** per-(function, block) cost attribution, merged over workers;
          present iff [config.profile].  Every integer counter of the
          sites sums exactly to the whole-run total; attributed solver
          time sums to [solver_time] up to float rounding. *)
}

val run : ?config:config -> Overify_ir.Ir.modul -> result
(** Symbolically execute [main].  Fresh solver state per run.

    Determinism contract: for a run with [complete = true], the values of
    [paths], [bugs], [exit_codes] and [blocks_covered] do not depend on the
    searcher or the number of workers — [`Dfs], [`Bfs] and [`Parallel n]
    agree exactly.  (Counters such as [queries] and [cache_hits] do vary,
    since each worker caches independently.)  One worker explores in a
    fixed order, so [`Dfs], [`Bfs] and [`Parallel 1] runs are
    reproducible byte for byte even when a budget cuts them, and
    [`Parallel 1] equals [`Dfs].

    Budgets are global: completed paths and instructions (a resumed run
    counting its snapshot's) are checked at every completed path and
    every 2048 steps of each worker.  The first stop (a budget, a
    cancellation or a kill) wins and every worker abandons its state.

    Failure containment: per-path exceptions (including injected
    {!Overify_fault.Fault.Crash}) and per-query solver timeouts degrade
    only the affected paths and are reported in [degradations]; the
    completed subset keeps the determinism contract (an abandoned path
    never changes another path's verdict).  The only exceptions that
    escape are {!Overify_fault.Fault.Killed} (simulated process death —
    resume from the checkpoint), [Out_of_memory] and [Stack_overflow],
    each re-raised unchanged after the workers join, and setup errors
    ([Invalid_argument] for a module without [main] or [`Parallel n]
    with [n < 1]). *)

val same_verdicts : result -> result -> bool
(** The two runs agree on [paths], [exit_codes], [bugs] and
    [blocks_covered] — the fields {!run}'s determinism contract names. *)

val result_to_json : ?deterministic:bool -> result -> string
(** Machine-readable result (fixed key order, goldenable), including the
    [degradations] and [faults_injected] blocks.  [deterministic] zeroes
    everything that is not a verdict: the wall-clock fields, [cache_hits]
    (reuse-state-dependent: a warm store changes hit counts but, by the
    determinism contract, nothing else) and the effort/summary counters
    ([instructions], [forks], [queries], [summary_*]), which legitimately
    differ between compositional and inline exploration.  Identical
    programs therefore produce identical bytes regardless of cache
    temperature or summary mode. *)
