(** Runtime values of the symbolic executor.

    Only what is symbolic is a term: a concrete integer is its value, and
    a pointer's offset is an [int] until it depends on the input.  One
    spelling per value: [Sym] and [Sym_ptr] never hold a term that is a
    [Bv.Const] ({!of_term} and {!ptr_of_term} turn those into [Con] and
    [Ptr]), so a consumer that matches [Con]/[Ptr] sees every concrete
    value.  The operations below compute on concrete operands with the
    IR's evaluators ([Ir.eval_binop], [Ir.eval_cmp], [Ir.eval_cast]) and
    build a term, with {!Bv}'s smart constructors, only when an operand is
    symbolic: the result is the value of the term the operation would
    build, so the two paths agree by construction. *)

module Bv = Overify_solver.Bv

type t =
  | Con of int * int64
      (** concrete integer: width in bits, value zero-extended to it *)
  | Sym of Bv.t  (** symbolic integer *)
  | Ptr of int * int
      (** object id, byte offset.  The offset is the 64-bit offset taken
          modulo 2^63, the value bounds checks and stored pointers use. *)
  | Sym_ptr of int * Bv.t  (** object id, symbolic 64-bit offset term *)

val null : t
(** Object 0 at offset 0. *)

val of_term : Bv.t -> t
(** An integer term as a value: [Con] when it is a constant. *)

val ptr_of_term : int -> Bv.t -> t
(** [ptr_of_term obj off]: a pointer into [obj] at offset term [off]. *)

val term : t -> Bv.t
(** The term of an integer ([Bv.const] for a concrete one); null reads as
    the 64-bit 0.  Raises [Invalid_argument] on any other pointer. *)

val obj : t -> int
(** A pointer's object id. *)

val off_term : t -> Bv.t
(** The 64-bit offset term of a pointer. *)

val width : t -> int
(** Bit width; 64 for pointers. *)

val binop : Bv.binop -> t -> t -> t
(** [Ir.eval_binop] on two concrete operands, [Bv.binop] otherwise (also
    for a division by zero, which [Bv.binop] keeps as a term). *)

val cmp : Bv.cmpop -> t -> t -> t
(** A 1-bit result: [Ir.eval_cmp] or [Bv.cmp]. *)

val cast :
  Overify_ir.Ir.castop -> to_ty:Overify_ir.Ir.ty -> from_ty:Overify_ir.Ir.ty ->
  t -> t
(** [Ir.eval_cast] or [Bv.zext]/[sext]/[trunc]. *)

val map_term : (Bv.t -> Bv.t) -> t -> t
(** Rewrite the term of a [Sym] or [Sym_ptr] (checkpoint restore
    re-interns unmarshaled terms). *)
