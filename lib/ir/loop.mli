(** Natural-loop detection.  A back edge is an edge [u -> h] where [h]
    dominates [u]; loops sharing a header are merged, as in LLVM LoopInfo. *)

module IntSet = Cfg.IntSet

type t = {
  header : int;
  latches : int list;       (** sources of back edges into [header] *)
  blocks : IntSet.t;        (** includes the header *)
  exiting : int list;       (** blocks inside with a successor outside *)
  exits : int list;         (** blocks outside with a predecessor inside *)
  preheader : int option;   (** unique out-of-loop predecessor of the header,
                                if it branches only to the header *)
}

val mem : t -> int -> bool

val find : Ir.func -> t list
(** All natural loops, ordered by header RPO index. *)

val check_current :
  string -> (t -> 'a) -> Ir.func -> int list array -> t list -> unit
(** [check_current what view fn preds loops] is paranoid mode's check on a
    pass that finds the loops once per application and keeps the list and
    the predecessor table current across its own transformations: it fails,
    naming [what] and the first difference, unless [loops] has the order of
    [find fn] and agrees with it through [view] (the fields the pass reads),
    and [preds] is [Cfg.preds fn]. *)

val depth_map : Ir.func -> (int, int) Hashtbl.t
(** Loop-nesting depth of each block (0 = not in any loop). *)
