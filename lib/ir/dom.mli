(** Dominator tree and dominance frontiers (Cooper–Harvey–Kennedy), on
    arrays indexed by reverse-postorder position. *)

module IntSet = Cfg.IntSet

type t

val compute : Ir.func -> t

val idom : t -> int -> int option
(** Immediate dominator; [None] for the entry and unreachable blocks. *)

val children : t -> int -> int list
(** Children in the dominator tree, in reverse RPO. *)

val rpo_index : t -> int -> int option
(** Position in reverse postorder; [None] exactly for unreachable blocks. *)

val dominates : t -> int -> int -> bool
(** Does the first block dominate the second?  Reflexive. *)

val frontiers : Ir.func -> t -> IntSet.t array
(** Dominance frontier of every block, label-indexed.  A loop header
    belongs to its own frontier (this is what places the phis for back
    edges). *)

val frontier_of : IntSet.t array -> int -> IntSet.t
