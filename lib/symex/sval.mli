(** Symbolic runtime values: bitvector terms, or pointers with a concrete
    object identity and a (possibly symbolic) byte offset. *)

module Bv = Overify_solver.Bv

type t =
  | SInt of Bv.t
  | SPtr of int * Bv.t  (** object id, 64-bit offset term *)

val null : t
(** Object 0 at offset 0. *)

val as_int : t -> Bv.t option
(** Integer view; null reads as 0. *)

val as_ptr : t -> (int * Bv.t) option
(** Pointer view; the integer 0 reads as null. *)

val to_string : t -> string
