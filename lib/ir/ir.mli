(** Core intermediate representation.

    The IR is deliberately close to LLVM bitcode, which is what the paper's
    prototype operates on: typed virtual registers, basic blocks ending in a
    single terminator, [phi] nodes for SSA form, [alloca]/[load]/[store] for
    stack memory, and an address-computation instruction ([Gep]).

    Two forms of the same IR are used by the pipeline:
    - {e memory form}, produced by the frontend: every value that crosses a
      basic-block boundary lives in an alloca, and there are no phis.  Block
      cloning (inlining, unswitching, unrolling) is trivially sound here.
    - {e SSA form}, produced by [mem2reg]: promoted allocas become registers
      joined by phis; scalar optimizations run on this form.

    Registers and block labels share one per-function integer id space drawn
    from [func.next]. *)

(** Scalar and aggregate types.  Pointers are opaque (untyped), as in modern
    LLVM; memory instructions carry the accessed type. *)
type ty =
  | I1
  | I8
  | I16
  | I32
  | I64
  | Ptr
  | Void
  | Arr of ty * int  (** element type, element count; allocas/globals only *)

type binop =
  | Add | Sub | Mul
  | Sdiv | Udiv | Srem | Urem
  | And | Or | Xor
  | Shl | Lshr | Ashr

type cmp = Eq | Ne | Slt | Sle | Sgt | Sge | Ult | Ule | Ugt | Uge

type castop =
  | Zext   (** zero-extend to a wider type *)
  | Sext   (** sign-extend to a wider type *)
  | Trunc  (** truncate to a narrower type *)

(** Operand values.  Integer immediates are stored {e normalized}: the bit
    pattern is truncated to the width of [ty] and kept zero-extended inside
    the [int64]. *)
type value =
  | Imm of int64 * ty
  | Reg of int
  | Glob of string  (** address of the named global *)

type inst =
  | Bin of int * binop * ty * value * value
  | Cmp of int * cmp * ty * value * value      (** result has type [I1] *)
  | Select of int * ty * value * value * value (** [dst = sel cond, tv, fv] *)
  | Cast of int * castop * ty * value * ty     (** [dst = op to_ty, v, from_ty] *)
  | Alloca of int * ty * int                   (** element type, element count *)
  | Load of int * ty * value
  | Store of ty * value * value                (** [store ty v, ptr] *)
  | Gep of int * value * int * value           (** [dst = base + scale * idx] (bytes) *)
  | Call of int option * ty * string * value list
  | Phi of int * ty * (int * value) list       (** incoming (pred label, value) *)

type term =
  | Br of int
  | Cbr of value * int * int  (** condition (I1), then-label, else-label *)
  | Ret of value option
  | Unreachable

type block = {
  bid : int;
  insts : inst list;  (** phis, if any, form a prefix *)
  term : term;
}

type func = {
  fname : string;
  params : (int * ty) list;
  ret : ty;
  blocks : block list;  (** the first block is the entry; it has no preds *)
  next : int;           (** next fresh register/label id *)
  fmeta : (string * string) list;
      (** annotations preserved for verification tools (paper §3) *)
}

(** A global is a raw byte image; [gconst] marks read-only data such as
    string literals. *)
type global = {
  gname : string;
  gsize : int;
  ginit : string;
  gconst : bool;
}

type modul = {
  globals : global list;
  funcs : func list;
}

(** {2 Types} *)

val size_of_ty : ty -> int
(** Size in bytes ([Ptr] is 8). *)

val bits_of_ty : ty -> int
(** Bit width of a scalar type; raises [Invalid_argument] on [Void]/[Arr]. *)

val is_int_ty : ty -> bool
val mask : int -> int64
(** [mask bits]: the low [bits] bits set (all ones from 64 up). *)

val to_signed : int -> int64 -> int64
(** [to_signed bits v]: the signed value of a normalized [bits]-bit one. *)

val norm : ty -> int64 -> int64
(** Normalize a constant to the canonical zero-extended representation. *)

val signed_of : ty -> int64 -> int64
(** Signed interpretation of a normalized constant. *)

(** {2 Value constructors} *)

val imm : ty -> int64 -> value
val imm_bool : bool -> value
val zero : ty -> value
val one : ty -> value
val is_zero : value -> bool
val value_eq : value -> value -> bool

(** {2 Instruction structure} *)

val def_of_inst : inst -> int option
(** The register defined by an instruction, if any. *)

val uses_of_inst : inst -> value list
val uses_of_term : term -> value list
val ty_of_inst : inst -> ty
(** Result type of the definition (meaningless for [Store]). *)

val is_phi : inst -> bool

val is_speculatable : inst -> bool
(** No side effect and cannot trap: may be freely duplicated, speculated or
    removed.  Excludes loads (may fault) and division (divide by zero). *)

val is_pure : inst -> bool
(** No observable side effect (removal is sound if the result is unused);
    loads are pure in this sense. *)

val map_inst_values : (int -> value) -> inst -> inst
(** Substitute register operands; the defined register is untouched. *)

val map_term_values : (int -> value) -> term -> term
val subst_block : int -> value -> block -> block
val subst_func : int -> value -> func -> func

(** {2 Functions and modules} *)

val entry : func -> block
val find_block : func -> int -> block
val block_tbl : func -> (int, block) Hashtbl.t
val update_block : func -> block -> func
val iter_insts : (block -> inst -> unit) -> func -> unit
val func_size : func -> int
(** Static instruction count, the cost models' code-size metric. *)

val num_blocks : func -> int
val find_func : modul -> string -> func option
val find_func_exn : modul -> string -> func
val update_func : modul -> func -> modul

val intrinsics : string list
(** Names with runtime support ([__input], [__output], …); no IR body. *)

val is_intrinsic : string -> bool

(** Mutable supply of fresh register/label ids for one function. *)
module Fresh : sig
  type t

  val of_func : func -> t
  val take : t -> int
  val commit : t -> func -> func
  (** Write the final counter back into the function. *)
end

(** {2 Constant evaluation} The operators' one definition: folding, the
    loop passes and the interpreter pass [bits_of_ty ty]; [Bv]'s terms,
    and so the symbolic executor, pass any width from 1 to 64. *)

val eval_binop : binop -> int -> int64 -> int64 -> int64 option
(** [eval_binop op bits a b] over normalized [bits]-bit constants; [None]
    for division by zero. *)

val eval_cmp : cmp -> int -> int64 -> int64 -> bool

val eval_cast : castop -> ty -> int64 -> ty -> int64
(** [eval_cast op to_ty v from_ty]. *)

(** {2 Pointers in memory} The word the interpreter and the symbolic
    executor store: [(obj << 32) | (off + 1)], and 0 for null (object 0,
    offset 0).  Decoding is two functions, not one returning a pair, so
    that a pointer load allocates nothing. *)

val encode_ptr : int -> int -> int64
(** [encode_ptr obj off]. *)

val ptr_obj : int64 -> int
val ptr_off : int64 -> int
