(** Imperative function builder used by the frontend lowering and by tests
    that construct IR by hand.  Blocks appear in creation order; the entry
    is created (and selected) by {!create}. *)

type t

val create : name:string -> params:Ir.ty list -> ret:Ir.ty -> t
val param_regs : t -> int list
val fresh : t -> int

val new_block : t -> int
(** Create a new empty block; does not change the insertion point. *)

val switch_to : t -> int -> unit
val current : t -> int
val is_terminated : t -> bool

val add_inst : t -> Ir.inst -> unit
(** Append at the insertion point; fails on a terminated block. *)

val term : t -> Ir.term -> unit
(** Set the current block's terminator; no-op if already terminated (handy
    after [return]/[break] statements). *)

(** Convenience constructors; each appends and returns the defined value. *)

val bin : t -> Ir.binop -> Ir.ty -> Ir.value -> Ir.value -> Ir.value
val cmp : t -> Ir.cmp -> Ir.ty -> Ir.value -> Ir.value -> Ir.value
val select : t -> Ir.ty -> Ir.value -> Ir.value -> Ir.value -> Ir.value
val cast : t -> Ir.castop -> Ir.ty -> Ir.value -> Ir.ty -> Ir.value
val alloca : t -> Ir.ty -> int -> Ir.value
val load : t -> Ir.ty -> Ir.value -> Ir.value
val store : t -> Ir.ty -> Ir.value -> Ir.value -> unit
val gep : t -> Ir.value -> int -> Ir.value -> Ir.value
val call : t -> Ir.ty -> string -> Ir.value list -> Ir.value option

val entry_alloca : t -> Ir.ty -> int -> Ir.value
(** Stack storage hoisted into the entry block regardless of the insertion
    point — the memory-form invariant's only cross-block registers. *)

val finish : t -> Ir.func
(** Fails if any created block lacks a terminator. *)
