(** CDCL SAT solver on flat arrays: two-watched-literal propagation,
    first-UIP clause learning with non-chronological backjumping, EVSIDS
    activities, phase saving and Luby restarts — a compact MiniSat.

    Literal encoding: variable [v] (0-based) has positive literal [2v] and
    negative literal [2v+1].

    The search is deterministic: the same clauses added in the same order
    give the same model.  Models are answers of the whole tool (exit-code
    witnesses, solver store entries), and test/solver_digests.tsv pins
    them. *)

type t

val create : unit -> t

val new_var : t -> int
(** Allocate a fresh variable; returns its index. *)

val lit_of_var : int -> bool -> int
(** [lit_of_var v positive] is the literal for [v] with the given polarity. *)

val var_of : int -> int

val lit_sign : int -> bool
(** [true] = positive. *)

val neg : int -> int

val add_clause : t -> int array -> unit
(** Add a clause.  The solver takes the array over: it sorts the
    literals in place, drops duplicates and literals false at the root,
    and may keep the array as the stored clause, so the caller must not
    use it again.  A tautology or a clause already true at the root is
    skipped.  May be called between [solve]s; resets any leftover
    non-root assignment first.  An empty or root-falsified clause makes
    the instance permanently unsatisfiable. *)

exception Timeout
(** Raised by {!solve} when the wall-clock [deadline] passes. *)

val solve : ?assumptions:int list -> ?deadline:float -> t -> bool
(** Decide satisfiability under the given assumption literals.  Learned
    clauses persist across calls (incremental use). *)

val model_value : t -> int -> bool
(** Value of a variable after a [true] answer from {!solve}. *)
