(** Control-flow graph queries over a function's blocks. *)

module IntSet : Set.S with type elt = int
module IntMap : Map.S with type key = int

val succs_of_term : Ir.term -> int list
(** Successor labels; a same-target [Cbr] is reported once. *)

val succs : Ir.block -> int list

val block_array : Ir.func -> Ir.block option array
(** Label-indexed blocks; [None] for labels without a block.  The array
    covers [fn.next], every block id and every branch target, like every
    label-indexed array in the analyses. *)

val preds : Ir.func -> int list array
(** Predecessor table: label -> predecessor block ids, in block order
    ([[]] for labels without a block). *)

val preds_of : int list array -> int -> int list
(** Predecessors of a label; [[]] outside the table. *)

val reachable : Ir.func -> IntSet.t
(** Blocks reachable from the entry. *)

val rpo_of_array : Ir.block option array -> int -> int list
(** [rpo_of_array (block_array fn) entry] is [rpo fn], for an analysis
    that already holds the block array. *)

val postorder : Ir.func -> int list
val rpo : Ir.func -> int list
(** Reverse postorder of reachable blocks (entry first).  Both come from one
    explicit-stack DFS that visits successors in order, so they match a
    recursive DFS at any depth. *)

val remove_unreachable : Ir.func -> Ir.func * bool
(** Drop unreachable blocks and prune phi entries from removed edges. *)

val sweep : Ir.func -> int list -> Ir.func * bool
(** [sweep fn (rpo fn)] is [remove_unreachable fn], for a caller that needs
    the reverse postorder too: it is also the order of the result. *)

val redirect_term : int -> int -> Ir.term -> Ir.term
(** [redirect_term from_l to_l t] retargets branches to [from_l]. *)

val retarget_phis : Ir.block -> from_pred:int -> to_pred:int -> Ir.block
(** Rewrite a block's phi incoming labels for a moved edge. *)
