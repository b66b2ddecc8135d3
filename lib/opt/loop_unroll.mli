(** Loop unrolling by peeling, on memory-form IR.  A counted loop with a
    constant trip count T is peeled T times in front of a residual copy, so
    the transformation is semantics-preserving even if the trip-count
    analysis were wrong; folding then collapses the peels and
    {!Loop_delete} removes the residue. *)

val run :
  Costmodel.t -> Stats.t -> Overify_ir.Ir.func -> Overify_ir.Ir.func * bool

(**/**)

(* exposed for the annotation pass, which records surviving trip counts *)
val analyze :
  Costmodel.t ->
  Overify_ir.Ir.block option array ->
  int list array ->
  Overify_ir.Cfg.IntSet.t ->
  Overify_ir.Loop.t ->
  int option
(** The trip count of a loop that peeling would copy out in full, given the
    function's [Cfg.block_array], [Cfg.preds] and non-escaping slots. *)
