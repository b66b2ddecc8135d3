(** Symbolic runtime values: bitvector terms, or pointers with a concrete
    object identity and a (possibly symbolic) byte offset.  The null pointer
    is object 0 at offset 0. *)

module Bv = Overify_solver.Bv

type t =
  | SInt of Bv.t
  | SPtr of int * Bv.t  (** object id, 64-bit offset term *)

let null = SPtr (0, Bv.const 64 0L)

let as_int = function
  | SInt t -> Some t
  | SPtr (0, o) when o.Bv.node = Bv.Const 0L -> Some (Bv.const 64 0L)
  | SPtr _ -> None

let as_ptr = function
  | SPtr (o, off) -> Some (o, off)
  | SInt t when t.Bv.node = Bv.Const 0L -> Some (0, Bv.const 64 0L)
  | SInt _ -> None

let to_string = function
  | SInt t -> Bv.to_string t
  | SPtr (o, off) -> Printf.sprintf "&obj%d[%s]" o (Bv.to_string off)
