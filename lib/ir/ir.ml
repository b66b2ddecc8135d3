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
    the [int64].  Use {!norm} to normalize and {!signed_of} to read back a
    signed interpretation. *)
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

(* ------------------------------------------------------------------ *)
(* Types *)

let rec size_of_ty = function
  | I1 | I8 -> 1
  | I16 -> 2
  | I32 -> 4
  | I64 -> 8
  | Ptr -> 8
  | Void -> 0
  | Arr (t, n) -> size_of_ty t * n

let bits_of_ty = function
  | I1 -> 1
  | I8 -> 8
  | I16 -> 16
  | I32 -> 32
  | I64 -> 64
  | Ptr -> 64
  | Void | Arr _ -> invalid_arg "Ir.bits_of_ty: not a scalar type"

let is_int_ty = function
  | I1 | I8 | I16 | I32 | I64 -> true
  | Ptr | Void | Arr _ -> false

(** Bit mask covering [bits] bits (all ones from 64 up). *)
let mask bits =
  if bits >= 64 then -1L else Int64.sub (Int64.shift_left 1L bits) 1L

(** Signed interpretation of a normalized [bits]-bit constant. *)
let to_signed bits v =
  if bits >= 64 then v
  else
    let shift = 64 - bits in
    Int64.shift_right (Int64.shift_left v shift) shift

(** Normalize a constant to the canonical zero-extended representation. *)
let norm ty v = Int64.logand v (mask (bits_of_ty ty))

(** Signed interpretation of a normalized constant of type [ty]. *)
let signed_of ty v = to_signed (bits_of_ty ty) v

let imm ty v = Imm (norm ty v, ty)
let imm_bool b = Imm ((if b then 1L else 0L), I1)
let zero ty = Imm (0L, ty)
let one ty = imm ty 1L

let is_zero = function Imm (0L, _) -> true | Imm _ | Reg _ | Glob _ -> false

let value_eq (a : value) (b : value) = a = b

(* ------------------------------------------------------------------ *)
(* Instruction structure *)

(** The register defined by an instruction, if any. *)
let def_of_inst = function
  | Bin (d, _, _, _, _)
  | Cmp (d, _, _, _, _)
  | Select (d, _, _, _, _)
  | Cast (d, _, _, _, _)
  | Alloca (d, _, _)
  | Load (d, _, _)
  | Gep (d, _, _, _)
  | Phi (d, _, _) -> Some d
  | Call (d, _, _, _) -> d
  | Store _ -> None

(** Values read by an instruction (phi incoming values included). *)
let uses_of_inst = function
  | Bin (_, _, _, a, b) | Cmp (_, _, _, a, b) -> [ a; b ]
  | Select (_, _, c, a, b) -> [ c; a; b ]
  | Cast (_, _, _, v, _) -> [ v ]
  | Alloca _ -> []
  | Load (_, _, p) -> [ p ]
  | Store (_, v, p) -> [ v; p ]
  | Gep (_, base, _, idx) -> [ base; idx ]
  | Call (_, _, _, args) -> args
  | Phi (_, _, incoming) -> List.map snd incoming

let uses_of_term = function
  | Br _ | Unreachable | Ret None -> []
  | Ret (Some v) -> [ v ]
  | Cbr (c, _, _) -> [ c ]

(** Result type of an instruction's definition (meaningless for [Store]). *)
let ty_of_inst = function
  | Bin (_, _, ty, _, _) -> ty
  | Cmp _ -> I1
  | Select (_, ty, _, _, _) -> ty
  | Cast (_, _, to_ty, _, _) -> to_ty
  | Alloca _ -> Ptr
  | Load (_, ty, _) -> ty
  | Gep _ -> Ptr
  | Call (_, ty, _, _) -> ty
  | Phi (_, ty, _) -> ty
  | Store _ -> Void

let is_phi = function Phi _ -> true | _ -> false

(** An instruction that may be freely duplicated, speculated or removed:
    it has no side effect and cannot trap. Loads are excluded because a
    speculated load may touch an invalid address; division is excluded
    because of division by zero. *)
let is_speculatable = function
  | Bin (_, (Sdiv | Udiv | Srem | Urem), _, _, _) -> false
  | Bin _ | Cmp _ | Select _ | Cast _ | Gep _ -> true
  | Alloca _ | Load _ | Store _ | Call _ | Phi _ -> false

(** An instruction with no observable side effect (its removal is sound if
    its result is unused).  Loads are pure in this sense. *)
let is_pure = function
  | Bin _ | Cmp _ | Select _ | Cast _ | Gep _ | Load _ | Phi _ -> true
  | Alloca _ | Store _ | Call _ -> false

let map_value f = function
  | Reg r -> f r
  | (Imm _ | Glob _) as v -> v

(** Substitute register operands of an instruction through [f].  The defined
    register is left untouched. *)
let map_inst_values f inst =
  let m = map_value f in
  match inst with
  | Bin (d, op, ty, a, b) -> Bin (d, op, ty, m a, m b)
  | Cmp (d, op, ty, a, b) -> Cmp (d, op, ty, m a, m b)
  | Select (d, ty, c, a, b) -> Select (d, ty, m c, m a, m b)
  | Cast (d, op, to_ty, v, from_ty) -> Cast (d, op, to_ty, m v, from_ty)
  | Alloca _ as i -> i
  | Load (d, ty, p) -> Load (d, ty, m p)
  | Store (ty, v, p) -> Store (ty, m v, m p)
  | Gep (d, base, scale, idx) -> Gep (d, m base, scale, m idx)
  | Call (d, ty, fn, args) -> Call (d, ty, fn, List.map m args)
  | Phi (d, ty, incoming) ->
      Phi (d, ty, List.map (fun (p, v) -> (p, m v)) incoming)

let map_term_values f term =
  let m = map_value f in
  match term with
  | Br _ | Unreachable | Ret None -> term
  | Ret (Some v) -> Ret (Some (m v))
  | Cbr (c, t, e) -> Cbr (m c, t, e)

(** Replace every use of register [r] by value [v] throughout a block. *)
let subst_block r v blk =
  let f r' = if r' = r then v else Reg r' in
  {
    blk with
    insts = List.map (map_inst_values f) blk.insts;
    term = map_term_values f blk.term;
  }

let subst_func r v fn = { fn with blocks = List.map (subst_block r v) fn.blocks }

(* ------------------------------------------------------------------ *)
(* Functions and modules *)

let entry fn =
  match fn.blocks with
  | b :: _ -> b
  | [] -> invalid_arg ("Ir.entry: empty function " ^ fn.fname)

let find_block fn bid =
  match List.find_opt (fun b -> b.bid = bid) fn.blocks with
  | Some b -> b
  | None ->
      invalid_arg
        (Printf.sprintf "Ir.find_block: no block %d in %s" bid fn.fname)

let block_tbl fn =
  let tbl = Hashtbl.create (List.length fn.blocks) in
  List.iter (fun b -> Hashtbl.replace tbl b.bid b) fn.blocks;
  tbl

(** Replace a block (matched by [bid]) wholesale. *)
let update_block fn blk =
  {
    fn with
    blocks = List.map (fun b -> if b.bid = blk.bid then blk else b) fn.blocks;
  }

let iter_insts f fn = List.iter (fun b -> List.iter (f b) b.insts) fn.blocks

(** Static instruction count, the code-size metric used by cost models. *)
let func_size fn =
  List.fold_left (fun acc b -> acc + List.length b.insts + 1) 0 fn.blocks

let num_blocks fn = List.length fn.blocks

let find_func m name = List.find_opt (fun f -> f.fname = name) m.funcs

let find_func_exn m name =
  match find_func m name with
  | Some f -> f
  | None -> invalid_arg ("Ir.find_func_exn: no function " ^ name)

let update_func m fn =
  {
    m with
    funcs = List.map (fun f -> if f.fname = fn.fname then fn else f) m.funcs;
  }

(** Names with runtime support in the interpreter and symbolic executor;
    they have no IR body. *)
let intrinsics =
  [ "__input"; "__input_size"; "__output"; "__abort"; "__assert" ]

let is_intrinsic name = List.mem name intrinsics

(* ------------------------------------------------------------------ *)
(* Fresh id supply *)

(** Mutable supply of fresh register/label ids for one function.  Create it
    from the function being rewritten and write the final counter back with
    {!commit}. *)
module Fresh = struct
  type t = int ref

  let of_func fn : t = ref fn.next
  let take (t : t) = let v = !t in incr t; v
  let commit (t : t) fn = { fn with next = !t }
end

(* ------------------------------------------------------------------ *)
(* Constant evaluation: the operators' one definition, at any width *)

(** Evaluate a binary operation over normalized [bits]-bit constants.
    Returns [None] for division by zero. *)
let eval_binop op bits a b =
  let sa = to_signed bits a and sb = to_signed bits b in
  let ok v = Some (Int64.logand v (mask bits)) in
  match op with
  | Add -> ok (Int64.add a b)
  | Sub -> ok (Int64.sub a b)
  | Mul -> ok (Int64.mul a b)
  | Sdiv -> if sb = 0L then None else ok (Int64.div sa sb)
  | Srem -> if sb = 0L then None else ok (Int64.rem sa sb)
  | Udiv -> if b = 0L then None else ok (Int64.unsigned_div a b)
  | Urem -> if b = 0L then None else ok (Int64.unsigned_rem a b)
  | And -> ok (Int64.logand a b)
  | Or -> ok (Int64.logor a b)
  | Xor -> ok (Int64.logxor a b)
  | Shl ->
      let s = Int64.to_int (Int64.unsigned_rem b (Int64.of_int bits)) in
      ok (Int64.shift_left a s)
  | Lshr ->
      let s = Int64.to_int (Int64.unsigned_rem b (Int64.of_int bits)) in
      ok (Int64.shift_right_logical a s)
  | Ashr ->
      let s = Int64.to_int (Int64.unsigned_rem b (Int64.of_int bits)) in
      ok (Int64.shift_right sa s)

let eval_cmp op bits a b =
  let sa = to_signed bits a and sb = to_signed bits b in
  match op with
  | Eq -> a = b
  | Ne -> a <> b
  | Slt -> sa < sb
  | Sle -> sa <= sb
  | Sgt -> sa > sb
  | Sge -> sa >= sb
  | Ult -> Int64.unsigned_compare a b < 0
  | Ule -> Int64.unsigned_compare a b <= 0
  | Ugt -> Int64.unsigned_compare a b > 0
  | Uge -> Int64.unsigned_compare a b >= 0

let eval_cast op to_ty v from_ty =
  match op with
  | Zext | Trunc -> norm to_ty v
  | Sext -> norm to_ty (signed_of from_ty v)

(* ------------------------------------------------------------------ *)
(* Pointers in memory: (obj << 32) | (off + 1); null = 0 *)

let encode_ptr obj off =
  if obj = 0 && off = 0 then 0L
  else
    Int64.logor (Int64.shift_left (Int64.of_int obj) 32) (Int64.of_int (off + 1))

let ptr_obj raw = Int64.to_int (Int64.shift_right_logical raw 32)

let ptr_off raw =
  if raw = 0L then 0 else Int64.to_int (Int64.logand raw 0xFFFFFFFFL) - 1
