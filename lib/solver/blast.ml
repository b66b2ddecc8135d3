(** Bit-blasting of bitvector terms to CNF (Tseitin encoding).

    Each term becomes a little-endian array of SAT literals; circuits:
    ripple-carry adders, shift-add multipliers, restoring dividers, barrel
    shifters, borrow-based comparators.  Division circuits are patched so
    that division by zero yields 0, matching {!Bv.eval}.

    Every gate hands {!Sat.add_clause} a fresh literal array, which the
    SAT core sorts and keeps.  The clauses, their order and the variable
    numbering are part of the solver's answers (the SAT search and so the
    model follow from them), so a change here is a change of answers:
    test/solver_digests.tsv pins them. *)

module Itbl = Hashtbl.Make (Int)

type ctx = {
  sat : Sat.t;
  tlit : int;   (* literal that is constant true *)
  memo : int array Itbl.t;      (* term id -> bit literals *)
  varbits : int array Itbl.t;   (* bv var id -> bit literals *)
  deadline : float option;
  mutable ticks : int;
}

let create ?deadline () =
  let sat = Sat.create () in
  let v = Sat.new_var sat in
  let tlit = Sat.lit_of_var v true in
  Sat.add_clause sat [| tlit |];
  { sat; tlit; memo = Itbl.create 256; varbits = Itbl.create 64;
    deadline; ticks = 0 }

let flit ctx = Sat.neg ctx.tlit

let fresh ctx = Sat.lit_of_var (Sat.new_var ctx.sat) true

(* ---------------- gates ---------------- *)

let g_and ctx a b =
  if a = flit ctx || b = flit ctx then flit ctx
  else if a = ctx.tlit then b
  else if b = ctx.tlit then a
  else if a = b then a
  else if a = Sat.neg b then flit ctx
  else begin
    let o = fresh ctx in
    Sat.add_clause ctx.sat [| Sat.neg a; Sat.neg b; o |];
    Sat.add_clause ctx.sat [| a; Sat.neg o |];
    Sat.add_clause ctx.sat [| b; Sat.neg o |];
    o
  end

let g_or ctx a b = Sat.neg (g_and ctx (Sat.neg a) (Sat.neg b))

let g_xor ctx a b =
  if a = flit ctx then b
  else if b = flit ctx then a
  else if a = ctx.tlit then Sat.neg b
  else if b = ctx.tlit then Sat.neg a
  else if a = b then flit ctx
  else if a = Sat.neg b then ctx.tlit
  else begin
    let o = fresh ctx in
    Sat.add_clause ctx.sat [| Sat.neg a; Sat.neg b; Sat.neg o |];
    Sat.add_clause ctx.sat [| a; b; Sat.neg o |];
    Sat.add_clause ctx.sat [| Sat.neg a; b; o |];
    Sat.add_clause ctx.sat [| a; Sat.neg b; o |];
    o
  end

(** [c ? a : b] *)
let g_mux ctx c a b =
  if c = ctx.tlit then a
  else if c = flit ctx then b
  else if a = b then a
  else begin
    let o = fresh ctx in
    Sat.add_clause ctx.sat [| Sat.neg c; Sat.neg a; o |];
    Sat.add_clause ctx.sat [| Sat.neg c; a; Sat.neg o |];
    Sat.add_clause ctx.sat [| c; Sat.neg b; o |];
    Sat.add_clause ctx.sat [| c; b; Sat.neg o |];
    o
  end

(* ---------------- word-level circuits ---------------- *)

let const_bits ctx w v =
  Array.init w (fun i ->
      if Int64.logand (Int64.shift_right_logical v i) 1L = 1L then ctx.tlit
      else flit ctx)

(** Ripple-carry adder; returns (sum bits, carry out). *)
let adder ctx a b cin =
  let w = Array.length a in
  let sum = Array.make w (flit ctx) in
  let c = ref cin in
  for i = 0 to w - 1 do
    let axb = g_xor ctx a.(i) b.(i) in
    sum.(i) <- g_xor ctx axb !c;
    c := g_or ctx (g_and ctx a.(i) b.(i)) (g_and ctx axb !c)
  done;
  (sum, !c)

let neg_bits ctx a =
  let w = Array.length a in
  let inv = Array.map Sat.neg a in
  fst (adder ctx inv (const_bits ctx w 0L) ctx.tlit)

let sub ctx a b =
  (* a - b = a + ~b + 1 ; carry out = NOT borrow *)
  adder ctx a (Array.map Sat.neg b) ctx.tlit

let eq_bits ctx a b =
  let acc = ref ctx.tlit in
  Array.iteri (fun i ai -> acc := g_and ctx !acc (Sat.neg (g_xor ctx ai b.(i)))) a;
  !acc

(** unsigned a < b *)
let ult_bits ctx a b =
  let (_, carry) = sub ctx a b in
  Sat.neg carry

(** signed a < b *)
let slt_bits ctx a b =
  let w = Array.length a in
  let sa = a.(w - 1) and sb = b.(w - 1) in
  let diff_sign = g_xor ctx sa sb in
  g_mux ctx diff_sign sa (ult_bits ctx a b)

let mul ctx a b =
  let w = Array.length a in
  let acc = ref (const_bits ctx w 0L) in
  for j = 0 to w - 1 do
    (* row j: (a << j) masked by b_j *)
    let row =
      Array.init w (fun i -> if i < j then flit ctx else g_and ctx a.(i - j) b.(j))
    in
    let (s, _) = adder ctx !acc row (flit ctx) in
    acc := s
  done;
  !acc

(** Restoring division: returns (quotient, remainder); 0/0 convention is
    patched by the caller. *)
let udivrem ctx a d =
  let w = Array.length a in
  let r = ref (const_bits ctx w 0L) in
  let q = Array.make w (flit ctx) in
  for i = w - 1 downto 0 do
    (* r = (r << 1) | a_i *)
    let shifted = Array.init w (fun k -> if k = 0 then a.(i) else !r.(k - 1)) in
    let ge = Sat.neg (ult_bits ctx shifted d) in
    let (diff, _) = sub ctx shifted d in
    r := Array.init w (fun k -> g_mux ctx ge diff.(k) shifted.(k));
    q.(i) <- ge
  done;
  (q, !r)

let shift ctx a amount ~dir ~arith =
  (* barrel shifter over the needed low bits of [amount]; widths are powers
     of two so shift-mod-w uses exactly [log2 w] bits *)
  let w = Array.length a in
  let stages = ref 0 in
  while 1 lsl !stages < w do incr stages done;
  let cur = ref (Array.copy a) in
  for k = 0 to !stages - 1 do
    let sh = 1 lsl k in
    let bit = amount.(k) in
    let shifted =
      Array.init w (fun i ->
          match dir with
          | `Left -> if i < sh then flit ctx else !cur.(i - sh)
          | `Right ->
              if i + sh < w then !cur.(i + sh)
              else if arith then !cur.(w - 1)
              else flit ctx)
    in
    cur := Array.init w (fun i -> g_mux ctx bit shifted.(i) !cur.(i))
  done;
  !cur

let is_zero ctx a =
  let acc = ref ctx.tlit in
  Array.iter (fun b -> acc := g_and ctx !acc (Sat.neg b)) a;
  !acc

(* ---------------- term blasting ---------------- *)

let rec bits ctx (t : Bv.t) : int array =
  match Itbl.find_opt ctx.memo t.Bv.id with
  | Some b -> b
  | None ->
      (* blasting a giant term DAG can dominate a query: honour the
         wall-clock deadline every few thousand nodes *)
      ctx.ticks <- ctx.ticks + 1;
      (match ctx.deadline with
      | Some d when ctx.ticks land 2047 = 0 && Unix.gettimeofday () > d ->
          raise Sat.Timeout
      | _ -> ());
      let b = compute ctx t in
      assert (Array.length b = t.Bv.width);
      Itbl.replace ctx.memo t.Bv.id b;
      b

and compute ctx (t : Bv.t) : int array =
  let w = t.Bv.width in
  match t.Bv.node with
  | Bv.Const v -> const_bits ctx w v
  | Bv.Var id -> (
      match Itbl.find_opt ctx.varbits id with
      | Some b ->
          if Array.length b = w then b
          else invalid_arg "blast: same variable used at two widths"
      | None ->
          let b = Array.init w (fun _ -> fresh ctx) in
          Itbl.replace ctx.varbits id b;
          b)
  | Bv.Bin (op, x, y) -> (
      let a = bits ctx x and b = bits ctx y in
      match op with
      | Bv.Add -> fst (adder ctx a b (flit ctx))
      | Bv.Sub -> fst (sub ctx a b)
      | Bv.Mul -> mul ctx a b
      | Bv.And -> Array.init w (fun i -> g_and ctx a.(i) b.(i))
      | Bv.Or -> Array.init w (fun i -> g_or ctx a.(i) b.(i))
      | Bv.Xor -> Array.init w (fun i -> g_xor ctx a.(i) b.(i))
      | Bv.Shl -> shift ctx a b ~dir:`Left ~arith:false
      | Bv.Lshr -> shift ctx a b ~dir:`Right ~arith:false
      | Bv.Ashr -> shift ctx a b ~dir:`Right ~arith:true
      | Bv.Udiv ->
          let (q, _) = udivrem ctx a b in
          let z = is_zero ctx b in
          Array.map (fun l -> g_and ctx l (Sat.neg z)) q
      | Bv.Urem ->
          let (_, r) = udivrem ctx a b in
          let z = is_zero ctx b in
          Array.init w (fun i -> g_and ctx r.(i) (Sat.neg z))
      | Bv.Sdiv ->
          let sa = a.(w - 1) and sb = b.(w - 1) in
          let abs_a = Array.init w (fun i -> g_mux ctx sa (neg_bits ctx a).(i) a.(i)) in
          let abs_b = Array.init w (fun i -> g_mux ctx sb (neg_bits ctx b).(i) b.(i)) in
          let (q, _) = udivrem ctx abs_a abs_b in
          let sgn = g_xor ctx sa sb in
          let nq = neg_bits ctx q in
          let res = Array.init w (fun i -> g_mux ctx sgn nq.(i) q.(i)) in
          let z = is_zero ctx b in
          Array.map (fun l -> g_and ctx l (Sat.neg z)) res
      | Bv.Srem ->
          let sa = a.(w - 1) and sb = b.(w - 1) in
          let abs_a = Array.init w (fun i -> g_mux ctx sa (neg_bits ctx a).(i) a.(i)) in
          let abs_b = Array.init w (fun i -> g_mux ctx sb (neg_bits ctx b).(i) b.(i)) in
          let (_, r) = udivrem ctx abs_a abs_b in
          let nr = neg_bits ctx r in
          let res = Array.init w (fun i -> g_mux ctx sa nr.(i) r.(i)) in
          let z = is_zero ctx b in
          Array.map (fun l -> g_and ctx l (Sat.neg z)) res)
  | Bv.Cmp (op, x, y) -> (
      let a = bits ctx x and b = bits ctx y in
      let l =
        match op with
        | Bv.Eq -> eq_bits ctx a b
        | Bv.Ne -> Sat.neg (eq_bits ctx a b)
        | Bv.Ult -> ult_bits ctx a b
        | Bv.Uge -> Sat.neg (ult_bits ctx a b)
        | Bv.Ugt -> ult_bits ctx b a
        | Bv.Ule -> Sat.neg (ult_bits ctx b a)
        | Bv.Slt -> slt_bits ctx a b
        | Bv.Sge -> Sat.neg (slt_bits ctx a b)
        | Bv.Sgt -> slt_bits ctx b a
        | Bv.Sle -> Sat.neg (slt_bits ctx b a)
      in
      [| l |])
  | Bv.Ite (c, x, y) ->
      let cl = (bits ctx c).(0) in
      let a = bits ctx x and b = bits ctx y in
      Array.init w (fun i -> g_mux ctx cl a.(i) b.(i))
  | Bv.Concat (hi, lo) ->
      let h = bits ctx hi and l = bits ctx lo in
      Array.append l h
  | Bv.Extract (hi, lo, x) ->
      let a = bits ctx x in
      Array.sub a lo (hi - lo + 1)

(** Assert that a width-1 term is true. *)
let assert_true ctx (t : Bv.t) =
  assert (t.Bv.width = 1);
  let b = bits ctx t in
  Sat.add_clause ctx.sat [| b.(0) |]

(** Read a variable's value out of the SAT model. *)
let model_of_var ctx id : int64 option =
  match Itbl.find_opt ctx.varbits id with
  | None -> None
  | Some b ->
      let v = ref 0L in
      Array.iteri
        (fun i l ->
          let bitval =
            if Sat.lit_sign l then Sat.model_value ctx.sat (Sat.var_of l)
            else not (Sat.model_value ctx.sat (Sat.var_of l))
          in
          if bitval then v := Int64.logor !v (Int64.shift_left 1L i))
        b;
      Some !v
