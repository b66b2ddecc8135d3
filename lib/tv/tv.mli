(** Translation validation: prove each optimization-pass application sound
    with the in-tree symbolic engine (see DESIGN.md, "Translation
    validation").

    For one (pre, post) module pair, {!check_modules} builds the product
    program ({!Product.build}), explores its [main] symbolically under an
    {!Overify_symex.Engine.config} (by default {!default_config}), and
    classifies the result:

    - {e Proved}: exploration was complete and no equivalence assertion can
      fail — every non-trapping pre-execution within the input bound is
      reproduced exactly by the post-version (asymmetric refinement: paths
      on which the {e pre}-version traps are excused).
    - {e Counterexample}: a concrete input on which the two versions
      observably disagree (exit code, output trace, or a trap the pass
      introduced), replayed through the concrete interpreter.
    - {e Inconclusive}: the symbolic budget ran out.  The checker then
      falls back to bounded differential interpretation on concrete inputs
      (path witnesses from the partial exploration plus deterministic
      pseudo-random inputs); disagreement still yields a counterexample,
      agreement yields [Inconclusive] with an explicit budget-exhausted
      reason.

    {!validate} taps {!Overify_opt.Pipeline.optimize}'s observer stream and
    checks {e every} pass application of a compilation, producing a
    machine-readable per-pass report; since the observed (before, after)
    chain composes to the whole compilation, the first counterexample names
    the offending pass ({!first_offender}) — automatic pass bisection. *)

module Ir = Overify_ir.Ir

val default_config : Overify_symex.Engine.config
(** The engine configuration of one pass-application check: 3 symbolic
    input bytes, 400 paths, 2M instructions, 3 s, [`Dfs].  Callers
    override fields of it; [cancel] and [span] reach every obligation
    (see {!validate}).  The differential fallback's budget is fixed: 32
    pseudo-random inputs on top of the path witnesses, 2M interpreter
    instructions per run. *)

(** Observable behavior of one version on one concrete input. *)
type behavior = {
  exit_code : int64;
  output : string;
  trap : string option;
}

(** A concrete input on which pre and post observably disagree. *)
type witness = {
  input : string;
  pre_behavior : behavior;
  post_behavior : behavior;
  detail : string;  (** what disagrees, e.g. ["introduced trap: division by zero in f"] *)
}

type proof_kind =
  | Syntactic   (** modules identical up to [fmeta] — no exploration needed *)
  | Exhaustive  (** complete symbolic exploration of the product *)

type verdict =
  | Proved of proof_kind
  | Counterexample of witness
  | Inconclusive of string  (** always contains the budget-exhausted reason *)

type outcome = {
  verdict : verdict;
  run : Overify_symex.Engine.result option;
      (** the product's engine run, with its paths, queries and solver
          counters; [None] when no product ran (a syntactic proof, or no
          usable [main]) *)
  time : float;            (** total check time, seconds *)
  excused_pre_traps : int; (** bug reports excused because the pre-version trapped first *)
  fallback_runs : int;     (** differential interpretations performed *)
}

val check_modules :
  ?config:Overify_symex.Engine.config -> Ir.modul -> Ir.modul -> outcome
(** [check_modules pre post] checks that [post] refines [pre] on the
    product program, explored under [config].  A run that [config.cancel]
    stopped raises {!Overify_fault.Cancel.Cancelled} instead of falling
    back to differential runs. *)

(** {2 Whole-compilation validation} *)

(** One validated pass application, in application order. *)
type record = {
  pass : string;
  fn : string;  (** function transformed, ["*"] for module-level passes *)
  outcome : outcome;
}

type report = {
  level : string;         (** cost-model name, e.g. ["overify"] *)
  records : record list;  (** in application order *)
  time : float;
}

val validate :
  ?config:Overify_symex.Engine.config ->
  Overify_opt.Costmodel.t ->
  Ir.modul ->
  Overify_opt.Pipeline.result * report
(** Optimize [m] at the given level while translation-validating every pass
    application.  The compiled result is the same module an unobserved
    [Pipeline.optimize] produces.

    Every obligation runs under [config.store]; when it is [None], the
    validation attaches one {!Overify_solver.Store.in_memory} store for
    all its obligations, so a component an earlier obligation solved is
    a store hit in a later one.  A store hit is the fresh answer (the
    solver's determinism contract), so complete verdicts do not depend
    on it.

    [config.cancel] is checked before each obligation: a cancelled
    validation raises {!Overify_fault.Cancel.Cancelled} rather than
    return a partial report.  Each obligation runs under its own
    ["tv:<pass>(<fn>)"] span opened like [Engine.run]'s own
    ({!Overify_obs.Obs.Span.start_traced} under [config.span]), with the
    product's ["engine.run"] nested under it; the span closes
    with a counter named after the verdict plus [paths], [queries] and
    [fallback_runs]. *)

val first_offender : report -> record option
(** First pass application with a [Counterexample] verdict — the pass the
    bisection blames. *)

val counterexamples : report -> record list
val inconclusives : report -> record list

val string_of_verdict : verdict -> string
(** Human-readable one-liner, with witness/reason detail. *)

val report_to_json : report -> string
(** Machine-readable report: level, per-record pass/fn/verdict with solver
    statistics, and the per-pass rollup (one row per pass name, in
    first-application order). *)
