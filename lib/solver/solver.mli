(** Query interface over bit-blasting + CDCL behind a layered acceleration
    chain — the role KLEE's solver chain (simplify, independence,
    counterexample cache, STP) plays, plus a Green-style canonical cache
    and an optional persistent cross-run store.

    Layers, in order (each falls through to the next; see DESIGN.md,
    "Solver acceleration"): constant pruning → independence partitioning
    of the deduplicated assertions into variable-disjoint components →
    per-component id table (sorted hash-consed term-id set → answer; a
    hit costs a hash lookup) → on a miss, canonicalization of the
    component (structural sort, {!Canon}) → per-component canonical cache
    (α-renamed keys) → UNSAT-subset rule ({!Cexcache}) → persistent store
    ({!Store}, when attached) → fresh blast + SAT.

    All mutable solver state lives in an explicit {!ctx} threaded through
    {!check}.  A context is {e not} thread-safe; concurrent callers (the
    parallel exploration workers) each own one — only the optional
    {!Store.t} may be shared (it locks internally).

    Determinism contract: query answers — including the satisfying model —
    are a pure function of the assertion {e set}, never of cache history
    or assertion order, which is what lets parallel and sequential
    exploration agree exactly on path witnesses, with caching on or off.
    Term ids name terms only within one [Bv] generation, so a context must
    not outlive a [Bv.reset]. *)

type result =
  | Unsat
  | Sat of (int * int64) list
      (** satisfying assignment as (variable id, value) pairs *)

exception Timeout

type stats = {
  mutable queries : int;
  mutable cache_hits : int;
      (** queries answered without any blasting, by any layer *)
  mutable sat_answers : int;
  mutable unsat_answers : int;
  mutable solver_time : float;  (** seconds spent in blasting + SAT *)
  mutable components : int;
      (** independent components over all non-trivial queries *)
  mutable component_solves : int;
      (** components that reached a fresh blast + SAT — the raw solver
          invocations the chain exists to avoid *)
  mutable hits_canon : int;
      (** per-component hits of the id table or the canonical cache *)
  mutable hits_subset : int;    (** UNSAT-subset rule hits *)
  mutable hits_store : int;     (** persistent cross-run store hits *)
}

type ctx
(** Acceleration layers + stats counters + wall-clock deadline. *)

val create :
  ?deadline:float ->
  ?cancel:Overify_fault.Cancel.t ->
  ?hist:Overify_obs.Obs.Hist.t ->
  ?cache:bool ->
  ?store:Store.t ->
  ?faults:Overify_fault.Fault.t ->
  unit ->
  ctx
(** Fresh context with empty caches and zeroed counters.  [deadline] is an
    absolute [Unix.gettimeofday] instant past which blasting or SAT work
    raises {!Timeout}.  [cancel] attaches a cooperative cancellation
    token, polled (deadline-aware) at the top of every {!check}: a set or
    past-deadline token makes the query raise
    {!Overify_fault.Cancel.Cancelled} before any other work.  [hist]
    receives the latency of every real (uncached) solve.  [cache] enables
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

val stats : ctx -> stats
val reset_stats : ctx -> unit

val set_hist : ctx -> Overify_obs.Obs.Hist.t option -> unit
(** Attach (or detach) the per-query latency histogram. *)

val set_span : ctx -> Overify_obs.Obs.Span.t option -> unit
(** Attach (or detach) the parent span: every real (uncached) solve then
    emits a one-shot ["solver.check"] child span carrying its wall
    interval and [solver_time] counter into the flight ring (and, when
    collecting, the trace sink).  [None] (the default) emits nothing. *)

val clear_cache : ctx -> unit
(** Drop {e every} acceleration layer this context owns — the id table,
    the canonical component cache, the counterexample cache and the
    canonicalization memos.  Other contexts and the shared persistent
    store are unaffected. *)

val set_deadline : ctx -> float option -> unit

val set_cancel : ctx -> Overify_fault.Cancel.t option -> unit
(** Attach (or detach) the cooperative cancellation token. *)

val check : ctx -> Bv.t list -> result
(** Satisfiability of the conjunction of width-1 terms, through the
    acceleration chain.  The result (verdict {e and} model) is a pure
    function of the assertion set. *)

val model_value : (int * int64) list -> int -> int64
(** Look up a variable in a model; unconstrained variables read as 0. *)
