(** Loop unswitching on memory-form IR: a loop-invariant conditional inside
    the loop is evaluated once in a dispatch block that selects between two
    specialized copies of the loop — the transformation behind the paper's
    motivating example. *)

val non_escaping_slots : Overify_ir.Ir.block list -> Overify_ir.Cfg.IntSet.t
(** Allocas defined in the blocks and used there only as direct load/store
    addresses; a function's slots are those of [fn.blocks]. *)

val has_phis : Overify_ir.Ir.func -> bool

val run :
  Costmodel.t -> Stats.t -> Overify_ir.Ir.func -> Overify_ir.Ir.func * bool
