(** Runtime values of the symbolic executor: concrete integers, symbolic
    integers, and pointers with a concrete object identity and a concrete
    or symbolic byte offset.  One spelling per value: a term that folds to
    a constant is a concrete value, never a [Sym]/[Sym_ptr]. *)

module Ir = Overify_ir.Ir
module Bv = Overify_solver.Bv

type t =
  | Con of int * int64
  | Sym of Bv.t
  | Ptr of int * int
  | Sym_ptr of int * Bv.t

let null = Ptr (0, 0)

let of_term (t : Bv.t) =
  match t.Bv.node with Bv.Const v -> Con (t.Bv.width, v) | _ -> Sym t

let ptr_of_term obj (t : Bv.t) =
  match t.Bv.node with
  | Bv.Const v -> Ptr (obj, Int64.to_int v)
  | _ -> Sym_ptr (obj, t)

let term = function
  | Con (w, v) -> Bv.const w v
  | Sym t -> t
  | Ptr (0, 0) -> Bv.const 64 0L
  | Ptr _ | Sym_ptr _ -> invalid_arg "Sval.term: pointer"

let obj = function
  | Ptr (obj, _) | Sym_ptr (obj, _) -> obj
  | Con _ | Sym _ -> invalid_arg "Sval.obj: integer"

let off_term = function
  | Ptr (_, off) -> Bv.const 64 (Int64.of_int off)
  | Sym_ptr (_, off) -> off
  | Con _ | Sym _ -> invalid_arg "Sval.off_term: integer"

let width = function
  | Con (w, _) -> w
  | Sym t -> t.Bv.width
  | Ptr _ | Sym_ptr _ -> 64

let tt = Con (1, 1L)
let ff = Con (1, 0L)

let binop op a b =
  let fold () = of_term (Bv.binop op (term a) (term b)) in
  match (a, b) with
  | (Con (w, x), Con (_, y)) -> (
      match Ir.eval_binop op w x y with Some v -> Con (w, v) | None -> fold ())
  | _ -> fold ()

let cmp op a b =
  match (a, b) with
  | (Con (w, x), Con (_, y)) -> if Ir.eval_cmp op w x y then tt else ff
  | _ -> of_term (Bv.cmp op (term a) (term b))

let cast op ~to_ty ~from_ty v =
  match v with
  | Con (_, x) -> Con (Ir.bits_of_ty to_ty, Ir.eval_cast op to_ty x from_ty)
  | _ ->
      let w = Ir.bits_of_ty to_ty and t = term v in
      of_term
        (match op with
        | Ir.Zext -> Bv.zext w t
        | Ir.Sext -> Bv.sext w t
        | Ir.Trunc -> Bv.trunc w t)

let map_term f = function
  | Sym t -> Sym (f t)
  | Sym_ptr (o, off) -> Sym_ptr (o, f off)
  | (Con _ | Ptr _) as v -> v
