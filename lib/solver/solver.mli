(** Query interface over bit-blasting + CDCL behind a layered acceleration
    chain — the role KLEE's solver chain (simplify, independence,
    counterexample cache, STP) plays, plus Green-style canonical keys for
    an optional persistent cross-run store.

    Layers, in order (each falls through to the next; see DESIGN.md,
    "Solver acceleration"): constant pruning → independence partitioning
    of the deduplicated assertions into variable-disjoint components →
    per-component id table (sorted hash-consed term-id set → answer; a
    hit costs a hash lookup) → on a miss, canonicalization of the
    component (structural sort and α-renamed key, {!Canon}) → persistent
    store ({!Store}, when attached) → fresh blast + SAT, published to the
    store.

    All mutable solver state lives in an explicit {!ctx} threaded through
    {!check}.  A context is {e not} thread-safe; concurrent callers (the
    parallel exploration workers) each own one — only the optional
    {!Store.t} may be shared (it locks internally).

    Determinism contract: query answers — including the satisfying model —
    are a pure function of the assertion {e set}, never of cache history
    or assertion order, which is what lets parallel and sequential
    exploration agree exactly on path witnesses, with caching on or off. *)

type result =
  | Unsat
  | Sat of (int * int64) list
      (** satisfying assignment as (variable id, value) pairs *)

exception Timeout

type ctx
(** Acceleration layers + cost counters + wall-clock deadline. *)

val create :
  ?counters:Overify_obs.Obs.Counters.t ->
  ?deadline:float ->
  ?cancel:Overify_fault.Cancel.t ->
  ?hist:Overify_obs.Obs.Hist.t ->
  ?span:Overify_obs.Obs.Span.t ->
  ?cache:bool ->
  ?store:Store.t ->
  ?faults:Overify_fault.Fault.t ->
  unit ->
  ctx
(** Fresh context with empty caches.  [counters] (default: a fresh
    record) receives the solver's costs: [queries], [cache_hits] (queries
    answered without any blasting, by any layer), [solver_time] (seconds
    of the queries that blasted), [components] (independent components
    over all non-trivial queries), [component_solves] (fresh blast + SAT
    runs — the raw solver invocations the chain exists to avoid),
    [hits_canon] (per-component id-table hits) and [hits_store]
    (persistent store hits); the engine passes the worker's record,
    shared with its executor.  [deadline] is an
    absolute [Unix.gettimeofday] instant past which blasting or SAT work
    raises {!Timeout}.  [cancel] attaches a cooperative cancellation
    token, polled (deadline-aware) at the top of every {!check}: a set or
    past-deadline token makes the query raise
    {!Overify_fault.Cancel.Cancelled} before any other work.  [hist]
    receives the latency of every real (uncached) solve.  [span] is the
    parent of a one-shot ["solver.check"] span that every real solve
    emits with its wall interval and [solver_time] counter into the
    flight ring (and, when collecting, the trace sink).  [cache] enables
    the reuse layers (default: the [OVERIFY_SOLVER_CACHE] environment
    variable, off only when ["0"]); disabling it never changes an answer —
    canonicalization and partitioning still run, only reuse is skipped.
    [store] attaches a persistent cross-run store (shared across contexts;
    it locks internally); fresh results are published to it even with
    [cache:false].  [faults] attaches a fault-injection schedule: a
    scheduled solver timeout makes that query raise {!Timeout} before any
    cache layer is consulted, and a scheduled [stall@N] makes the N-th
    query block until the cancellation token fires ({!Timeout} immediately
    if no token is attached — a stuck solver must not hang a process that
    has no way to cancel it). *)

val check : ctx -> Bv.t list -> result
(** Satisfiability of the conjunction of width-1 terms, through the
    acceleration chain.  The result (verdict {e and} model) is a pure
    function of the assertion set. *)

val model_value : (int * int64) list -> int -> int64
(** Look up a variable in a model; unconstrained variables read as 0. *)
