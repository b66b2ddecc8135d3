(** Canonicalization of assertion sets — the front half of the solver
    acceleration chain (DESIGN.md, "Solver acceleration").

    Two jobs, both deterministic and independent of term allocation order
    (independence partitioning is the path condition's, {!Solver.Pc}, over
    the variable sets {!term_vars} gives):

    - {b normalize}: sort an assertion list by a structural digest (with a
      full structural compare as tie-break) and drop duplicates, so every
      permutation/duplication of the same assertion set maps to one
      canonical list;
    - {b rename}: serialize a component with variables renumbered by first
      occurrence, yielding a key under which α-equivalent components (same
      structure, different variable ids) collide, plus the positional map
      needed to translate models between the canonical variable space and
      the actual one.

    The digest and variable-set computations are memoized per hash-consed
    term id in a {!ctx} ([Bv] never hands an id out twice, so a memo entry
    never goes stale); a context is not thread-safe — exactly the
    ownership discipline of [Solver.ctx], which embeds one. *)

type ctx

val create : unit -> ctx

val digest : ctx -> Bv.t -> int64 * int64
(** 128-bit structural digest over node kinds, widths, constants and
    {e global} variable ids — never over term ids, so two workers that
    allocate the same term in different orders agree on the digest. *)

val compare_terms : ctx -> Bv.t -> Bv.t -> int
(** Total order: digest first, full structural comparison on collision.
    Returns 0 iff the terms are equal (hash-consing makes structural
    equality physical equality). *)

val term_vars : ctx -> Bv.t -> int list
(** Sorted list of symbolic-variable ids occurring in the term
    (memoized). *)

val normalize : ctx -> Bv.t list -> Bv.t list
(** Canonical form of an assertion list: sorted by {!compare_terms},
    duplicates removed.  A pure function of the assertion {e set}. *)

type renamed = {
  key : string;
      (** canonical serialization of the component DAG with variables
          renumbered by first occurrence; equal keys iff the components are
          identical up to an injective variable renaming *)
  cvars : int array;
      (** actual variable id of each canonical variable index *)
}

val rename : ctx -> Bv.t list -> renamed
(** Serialize a (canonically ordered) assertion list.  Linear in the DAG
    size: shared subterms are emitted once and referenced by node index. *)

val model_of_canon : renamed -> int64 array -> (int * int64) list
(** Translate a model in canonical variable space (value per canonical
    index) back to (actual variable id, value) pairs, in canonical-index
    order. *)
