(** Constant folding, algebraic simplification and copy propagation (an
    "instcombine-lite").  Runs on SSA form.

    The paper's §3 "instruction simplification" point: folding is good for
    execution but even better for verification, because every removed
    operation is one fewer symbolic expression and every branch condition
    reduced to a constant removes a solver query. *)

module Ir = Overify_ir.Ir

(** Is [v] a power of two > 0?  Returns the exponent. *)
let log2_opt v =
  if Int64.compare v 0L > 0 && Int64.logand v (Int64.sub v 1L) = 0L then begin
    let rec go i x = if x = 1L then i else go (i + 1) (Int64.shift_right_logical x 1) in
    Some (go 0 v)
  end
  else None

type action =
  | Keep
  | Replace of Ir.value   (* the defined register becomes this value *)
  | Rewrite of Ir.inst

let simplify_inst deftbl (inst : Ir.inst) : action =
  let def_of r = Hashtbl.find_opt deftbl r in
  match inst with
  | Ir.Bin (d, op, ty, a, b) -> (
      match (a, b) with
      | (Ir.Imm (va, _), Ir.Imm (vb, _)) -> (
          match Ir.eval_binop op (Ir.bits_of_ty ty) va vb with
          | Some v -> Replace (Ir.Imm (v, ty))
          | None -> Keep (* division by zero: preserve the trap *))
      | _ -> (
          let zero = Ir.zero ty and ones = Ir.imm ty (-1L) in
          match (op, a, b) with
          | (Ir.Add, x, z) when z = zero -> Replace x
          | (Ir.Add, z, x) when z = zero -> Replace x
          | (Ir.Sub, x, z) when z = zero -> Replace x
          | (Ir.Sub, x, y) when x = y -> Replace zero
          | (Ir.Mul, x, Ir.Imm (1L, _)) -> Replace x
          | (Ir.Mul, Ir.Imm (1L, _), x) -> Replace x
          | (Ir.Mul, _, z) when z = zero -> Replace zero
          | (Ir.Mul, z, _) when z = zero -> Replace zero
          | (Ir.Mul, x, Ir.Imm (v, _)) when log2_opt v <> None -> (
              match log2_opt v with
              | Some k ->
                  Rewrite (Ir.Bin (d, Ir.Shl, ty, x, Ir.imm ty (Int64.of_int k)))
              | None -> Keep)
          | ((Ir.Sdiv | Ir.Udiv), x, Ir.Imm (1L, _)) -> Replace x
          | (Ir.Udiv, x, Ir.Imm (v, _)) when log2_opt v <> None -> (
              match log2_opt v with
              | Some k ->
                  Rewrite (Ir.Bin (d, Ir.Lshr, ty, x, Ir.imm ty (Int64.of_int k)))
              | None -> Keep)
          | ((Ir.Srem | Ir.Urem), _, Ir.Imm (1L, _)) -> Replace zero
          | (Ir.And, x, o) when o = ones -> Replace x
          | (Ir.And, o, x) when o = ones -> Replace x
          | (Ir.And, _, z) when z = zero -> Replace zero
          | (Ir.And, z, _) when z = zero -> Replace zero
          | (Ir.And, x, y) when x = y -> Replace x
          | (Ir.Or, x, z) when z = zero -> Replace x
          | (Ir.Or, z, x) when z = zero -> Replace x
          | (Ir.Or, x, y) when x = y -> Replace x
          | (Ir.Or, _, o) when o = ones -> Replace ones
          | (Ir.Or, o, _) when o = ones -> Replace ones
          | (Ir.Xor, x, z) when z = zero -> Replace x
          | (Ir.Xor, z, x) when z = zero -> Replace x
          | (Ir.Xor, x, y) when x = y -> Replace zero
          | ((Ir.Shl | Ir.Lshr | Ir.Ashr), x, z) when z = zero -> Replace x
          | ((Ir.Shl | Ir.Lshr), z, _) when z = zero -> Replace zero
          | _ -> Keep))
  | Ir.Cmp (d, op, ty, a, b) -> (
      match (a, b) with
      | (Ir.Imm (va, _), Ir.Imm (vb, _)) when ty <> Ir.Ptr ->
          Replace (Ir.imm_bool (Ir.eval_cmp op (Ir.bits_of_ty ty) va vb))
      | _ when a = b && ty <> Ir.Ptr -> (
          match op with
          | Ir.Eq | Ir.Sle | Ir.Sge | Ir.Ule | Ir.Uge ->
              Replace (Ir.imm_bool true)
          | Ir.Ne | Ir.Slt | Ir.Sgt | Ir.Ult | Ir.Ugt ->
              Replace (Ir.imm_bool false))
      | _ -> (
          (* icmp (zext i1 x), 0  ==>  x  or  !x *)
          let zext_i1_of = function
            | Ir.Reg r -> (
                match def_of r with
                | Some (Ir.Cast (_, Ir.Zext, _, src, Ir.I1)) -> Some src
                | _ -> None)
            | _ -> None
          in
          match (op, zext_i1_of a, b) with
          | (Ir.Ne, Some x, z) when Ir.is_zero z -> Replace x
          | (Ir.Eq, Some x, z) when Ir.is_zero z ->
              Rewrite (Ir.Bin (d, Ir.Xor, Ir.I1, x, Ir.imm Ir.I1 1L))
          | (Ir.Eq, Some x, Ir.Imm (1L, _)) -> Replace x
          | (Ir.Ne, Some x, Ir.Imm (1L, _)) ->
              Rewrite (Ir.Bin (d, Ir.Xor, Ir.I1, x, Ir.imm Ir.I1 1L))
          | _ ->
              (* unsigned compare of a zext'd narrow value against a constant
                 above its range *)
              (match (op, a, b) with
              | (Ir.Ult, Ir.Reg r, Ir.Imm (v, _)) -> (
                  match def_of r with
                  | Some (Ir.Cast (_, Ir.Zext, _, _, from_ty))
                    when Ir.bits_of_ty from_ty < 64
                         && Int64.unsigned_compare v
                              (Int64.shift_left 1L (Ir.bits_of_ty from_ty))
                            >= 0 ->
                      Replace (Ir.imm_bool true)
                  | _ -> Keep)
              | _ -> Keep)))
  | Ir.Select (_, ty, c, a, b) -> (
      match c with
      | Ir.Imm (1L, _) -> Replace a
      | Ir.Imm (0L, _) -> Replace b
      | _ ->
          if a = b then Replace a
          else if ty <> Ir.Ptr && a = Ir.one ty && Ir.is_zero b then
            match inst with
            | Ir.Select (d, _, _, _, _) ->
                if ty = Ir.I1 then Replace c
                else Rewrite (Ir.Cast (d, Ir.Zext, ty, c, Ir.I1))
            | _ -> Keep
          else Keep)
  | Ir.Cast (d, op, to_ty, v, from_ty) -> (
      if to_ty = from_ty then Replace v
      else
        match v with
        | Ir.Imm (c, _) -> Replace (Ir.Imm (Ir.eval_cast op to_ty c from_ty, to_ty))
        | Ir.Reg r -> (
            match (op, def_of r) with
            | (Ir.Zext, Some (Ir.Cast (_, Ir.Zext, _, src, src_ty))) ->
                (* zext (zext x) -> zext x *)
                Rewrite (Ir.Cast (d, Ir.Zext, to_ty, src, src_ty))
            | (Ir.Trunc, Some (Ir.Cast (_, (Ir.Zext | Ir.Sext), _, src, src_ty)))
              when to_ty = src_ty ->
                (* trunc (ext x) back to the original type -> x *)
                Replace src
            | (Ir.Trunc, Some (Ir.Cast (_, Ir.Zext, _, src, src_ty)))
              when Ir.bits_of_ty to_ty > Ir.bits_of_ty src_ty ->
                Rewrite (Ir.Cast (d, Ir.Zext, to_ty, src, src_ty))
            | _ -> Keep)
        | _ -> Keep)
  | Ir.Gep (_, base, _, idx) when Ir.is_zero idx -> Replace base
  | Ir.Phi (d, _, incoming) -> (
      (* a phi whose incoming values are all identical (ignoring self) *)
      let vals =
        List.filter_map
          (fun (_, v) -> if v = Ir.Reg d then None else Some v)
          incoming
      in
      match vals with
      | v :: rest when List.for_all (Ir.value_eq v) rest -> Replace v
      | _ -> Keep)
  | _ -> Keep

(** One folding round over a function.  Returns the new function and whether
    anything changed. *)
let run_round (stats : Stats.t) (fn : Ir.func) : Ir.func * bool =
  let deftbl = Hashtbl.create 64 in
  Ir.iter_insts
    (fun _ i ->
      match Ir.def_of_inst i with
      | Some d -> Hashtbl.replace deftbl d i
      | None -> ())
    fn;
  let subst : (int, Ir.value) Hashtbl.t = Hashtbl.create 16 in
  let rec resolve v =
    match v with
    | Ir.Reg r -> (
        match Hashtbl.find_opt subst r with
        | Some v' when v' <> v -> resolve v'
        | _ -> v)
    | _ -> v
  in
  let changed = ref false in
  let blocks =
    List.map
      (fun (b : Ir.block) ->
        let insts =
          List.filter_map
            (fun i ->
              let i = Ir.map_inst_values (fun r -> resolve (Ir.Reg r)) i in
              match simplify_inst deftbl i with
              | Keep -> Some i
              | Replace v -> (
                  match Ir.def_of_inst i with
                  | Some d ->
                      changed := true;
                      stats.Stats.insts_folded <- stats.Stats.insts_folded + 1;
                      Hashtbl.replace subst d (resolve v);
                      None
                  | None -> Some i)
              | Rewrite i' ->
                  changed := true;
                  stats.Stats.insts_folded <- stats.Stats.insts_folded + 1;
                  (match Ir.def_of_inst i' with
                  | Some d -> Hashtbl.replace deftbl d i'
                  | None -> ());
                  Some i')
            b.insts
        in
        let term = Ir.map_term_values (fun r -> resolve (Ir.Reg r)) b.term in
        { b with insts; term })
      fn.blocks
  in
  (* apply accumulated substitutions once more so later uses see them *)
  let final_sub r = resolve (Ir.Reg r) in
  let blocks =
    List.map
      (fun (b : Ir.block) ->
        {
          b with
          Ir.insts = List.map (Ir.map_inst_values final_sub) b.insts;
          term = Ir.map_term_values final_sub b.term;
        })
      blocks
  in
  ({ fn with blocks }, !changed)

let run stats (fn : Ir.func) : Ir.func * bool =
  let rec go fn n any =
    if n = 0 then (fn, any)
    else
      let (fn, changed) = run_round stats fn in
      if changed then go fn (n - 1) true else (fn, any)
  in
  go fn 8 false
