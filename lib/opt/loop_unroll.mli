(** Loop unrolling by peeling, on memory-form IR.  A counted loop with a
    constant trip count T is peeled T times in front of a residual copy, so
    the transformation is semantics-preserving even if the trip-count
    analysis were wrong; folding then collapses the peels and
    {!Loop_delete} removes the residue. *)

val run :
  Costmodel.t -> Stats.t -> Overify_ir.Ir.func -> Overify_ir.Ir.func * bool

(**/**)

(* exposed for the annotation pass, which records surviving trip counts *)
type counted = { islot : int; trip : int }

val analyze :
  Costmodel.t ->
  Overify_ir.Ir.func ->
  int list array ->
  Overify_ir.Cfg.IntSet.t ->
  Overify_ir.Loop.t ->
  (counted * int) option
