(** Per-function symbolic summaries — the compositional layer.

    A summary records the {e complete} set of execution traces of a
    function explored under unconstrained symbolic parameters (variable
    ids [param_base + i]) and fully symbolic writable-global byte cells
    (variable ids [global_cell_base + layout offset]).  Each trace is a
    list of {e flavored} path conjuncts (in execution order) plus an
    outcome: a return value, or a bug with its build-time attribution.

    Instantiating a summary at a call site substitutes the actual
    argument terms for the parameter variables and the caller's current
    global cell contents for the cell variables, then re-constrains the
    conjuncts one at a time against the caller's path condition.  Because
    substitution rebuilds terms bottom-up through the same smart
    constructors the inline executor uses, the replayed assertion lists
    are exactly the ones inline exploration would have produced — and the
    solver's determinism contract (answers are pure functions of the
    assertion set) then guarantees identical verdicts, models and
    witnesses.  The summary-vs-inline differential battery in
    test_summary.ml checks this end to end.

    The two conjunct flavors mirror the executor's two constraining
    disciplines:
    - [c_fork = false] ({e condition} conjuncts: division guards,
      assertions, select-on-distinct-objects): inline always constrains
      when the condition is feasible, so replay does too;
    - [c_fork = true] ({e branch} conjuncts, [Cbr] only): inline
      constrains {e only when both sides are feasible} — when the other
      side is infeasible it continues with the state (and model!)
      untouched.  Replay reproduces this: if the negation is infeasible
      under the caller context, the conjunct is skipped and the new model
      discarded.  Substitution preserves unsatisfiability, so a branch
      one-sided at build time stays one-sided under any caller context.

    Functions that cannot be summarized faithfully are [Opaque] and
    explored inline as before: recursion (SCC grouping via
    {!Overify_ir.Callgraph.cyclic}), symbolic memory offsets (the
    bounds checker's bug messages differ between concrete and symbolic
    offsets), budget blow-ups (trace count, instruction count), or any
    dropped path.

    Summaries persist in the solver {!Overify_solver.Store} as [E_blob]
    entries keyed by a structural fingerprint hashing the function body
    plus its callees' fingerprints — editing one function invalidates
    exactly its callgraph cone. *)

module Ir = Overify_ir.Ir
module Bv = Overify_solver.Bv

(** {2 Symbolic variable spaces} *)

val param_base : int
(** Parameter [i] of the summarized function is [Bv.var width (param_base + i)].
    Chosen far above the input-byte variable space. *)

val global_cell_base : int
(** Byte [off] of the writable-global layout is
    [Bv.var 8 (global_cell_base + off)]. *)

(** {2 Writable-global layout} *)

type layout = (string * int * int) list
(** [(gname, base_var, size)] per writable global, in module order:
    byte [i] of [gname] is cell variable [base_var + i]. *)

val layout : Ir.modul -> layout

val cell_of_var : layout -> int -> (string * int) option
(** Map a cell variable id back to [(gname, byte offset)]. *)

(** {2 The summary language} *)

type conjunct = {
  c_fork : bool;  (** branch conjunct (see the flavor rules above) *)
  c_term : Bv.t;  (** width-1 term over params / cells / input bytes *)
}

type outcome =
  | O_ret of Bv.t option  (** return value ([None] for [Void]) *)
  | O_bug of { bg_kind : string; bg_fn : string; bg_block : int }
      (** bug kind + build-time attribution (function, block) so replay
          reports the bug at the callee, not the caller *)

type trace = {
  t_conjuncts : conjunct list;  (** in execution order *)
  t_outcome : outcome;
  t_writes : (string * int * Bv.t) list;
      (** final value of every modified writable-global byte:
          [(gname, offset, 8-bit term)] *)
  t_covered : (string * int) list;
      (** blocks this trace covers: [(fname, bid)], sorted *)
}

type fsum =
  | Summarized of trace list  (** traces partition the input space *)
  | Opaque of string          (** reason; call sites explore inline *)

(** {2 Fingerprints and store keys} *)

val fingerprints : Ir.modul -> (string, string) Hashtbl.t
(** Structural fingerprint per defined function: the MD5 of the module's
    global layout, the (sorted) bodies of the function's SCC, and the
    (sorted, distinct) fingerprints of callee SCCs.  Two compiles of
    identical source agree; editing a function changes the fingerprints
    of exactly its callgraph cone (itself + transitive callers). *)

val store_key : string -> string
(** Store key for a fingerprint — namespaced ("summary:" prefix) so it
    can never collide with a canonical solver-component key. *)

(** {2 The static gate} *)

val candidates : Ir.modul -> string list
(** The functions that may be summarized at all, in bottom-up
    (callees-first) order.  A candidate is not [main], has integer params
    and an integer or void return, is acyclic, and every transitively
    reachable defined callee body is free of pointer-typed loads/stores,
    I/O intrinsics and calls to undefined non-intrinsic functions.
    Dynamic blow-ups (trace/instruction budgets, symbolic offsets, dropped
    paths) are caught during the build and published as [Opaque]. *)

(** {2 Persistence} *)

val encode : fsum -> string
val decode : string -> fsum option
(** [decode] re-interns all terms through {!Bv.rebuilder} (blob terms
    were marshaled from a previous hash-cons generation) and returns
    [None] on any version mismatch or decoding failure — a corrupt blob
    is a cache miss, never a crash. *)

(** {2 Substitution} *)

val subst : memo:(int, Bv.t) Hashtbl.t -> lookup:(int -> Bv.t) -> Bv.t -> Bv.t
(** Replace every variable [v >= param_base] by [lookup v], rebuilding
    bottom-up through the smart constructors (so the result is exactly
    the term inline execution would have built).  Variables below
    [param_base] (input bytes) are untouched.  [memo] caches by term id
    and must be scoped to one instantiation (one set of arguments). *)

(** {2 Test support} *)

val edit_function : Ir.modul -> string -> Ir.modul
(** Semantically neutral edit (prepends a dead add to the entry block)
    that still changes the printed body — used by the invalidation-cone
    property tests and [bench summary]'s one-function-edit phase. *)
