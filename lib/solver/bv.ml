(** Hash-consed bitvector terms — the symbolic-expression language shared by
    the symbolic executor and the solver (the role STP's expressions play for
    KLEE).

    Widths are 1..64 bits; constants are stored normalized (zero-extended
    into the [int64]).  Smart constructors perform local simplification so
    that the executor's common patterns (flag tests, arithmetic on
    constants) never reach the SAT solver.  The operator types and the
    constant arithmetic are the IR's, so the interpreter, the optimizer's
    folding and this term language give an operator one meaning. *)

module Ir = Overify_ir.Ir

type binop = Ir.binop =
  | Add | Sub | Mul | Sdiv | Udiv | Srem | Urem
  | And | Or | Xor | Shl | Lshr | Ashr

type cmpop = Ir.cmp = Eq | Ne | Slt | Sle | Sgt | Sge | Ult | Ule | Ugt | Uge

type t = { id : int; node : node; width : int }

and node =
  | Const of int64
  | Var of int          (** symbolic variable (input byte), id is global *)
  | Bin of binop * t * t
  | Cmp of cmpop * t * t   (** width 1 *)
  | Ite of t * t * t
  | Concat of t * t     (** high bits, low bits *)
  | Extract of int * int * t  (** [hi..lo] inclusive *)

let width t = t.width

(* zero-extend the low [w] bits in place: a cross-module [Ir.mask] call
   returns its mask boxed *)
let[@inline] norm w v =
  let s = 64 - w in
  Int64.shift_right_logical (Int64.shift_left v s) s

(* ---------------- hash consing ---------------- *)

module Node_key = struct
  let equal a b =
    match (a, b) with
    | (Const x, Const y) -> x = y
    | (Var x, Var y) -> x = y
    | (Bin (o1, a1, b1), Bin (o2, a2, b2)) ->
        o1 = o2 && a1.id = a2.id && b1.id = b2.id
    | (Cmp (o1, a1, b1), Cmp (o2, a2, b2)) ->
        o1 = o2 && a1.id = a2.id && b1.id = b2.id
    | (Ite (c1, a1, b1), Ite (c2, a2, b2)) ->
        c1.id = c2.id && a1.id = a2.id && b1.id = b2.id
    | (Concat (a1, b1), Concat (a2, b2)) -> a1.id = a2.id && b1.id = b2.id
    | (Extract (h1, l1, a1), Extract (h2, l2, a2)) ->
        h1 = h2 && l1 = l2 && a1.id = a2.id
    | _ -> false

  let hash = function
    | Const v -> Hashtbl.hash (0, v)
    | Var v -> Hashtbl.hash (1, v)
    | Bin (o, a, b) -> Hashtbl.hash (2, o, a.id, b.id)
    | Cmp (o, a, b) -> Hashtbl.hash (3, o, a.id, b.id)
    | Ite (c, a, b) -> Hashtbl.hash (4, c.id, a.id, b.id)
    | Concat (a, b) -> Hashtbl.hash (5, a.id, b.id)
    | Extract (h, l, a) -> Hashtbl.hash (6, h, l, a.id)
end

module NTbl = Hashtbl.Make (struct
  type nonrec t = node * int
  let equal (n1, w1) (n2, w2) = w1 = w2 && Node_key.equal n1 n2
  let hash (n, w) = Node_key.hash n lxor (w * 0x9e3779b1)
end)

let table : t NTbl.t = NTbl.create 4096
let counter = ref 0

(* The hash-cons table is the one piece of term state shared by every
   domain: parallel exploration workers build terms concurrently, so all
   table accesses go through this lock.  Everything downstream (blasting,
   SAT) is per-context and needs no synchronization.  Term [id]s depend on
   allocation order and therefore on scheduling, but ids are only names:
   structurally equal terms built since the last [reset] are one term with
   one id, no id is handed out twice, and nothing user-visible depends on
   the numeric values. *)
let lock = Mutex.create ()

let mk node width =
  Mutex.protect lock (fun () ->
      match NTbl.find_opt table (node, width) with
      | Some t -> t
      | None ->
          incr counter;
          let t = { id = !counter; node; width } in
          NTbl.replace table (node, width) t;
          t)

(** Re-intern terms that bypassed [mk] — i.e. came out of [Marshal] when
    loading a checkpoint.  An unmarshaled term carries stale [id]s: left
    alone it could collide with ids handed out by the live counter, and
    every id-keyed layer — the solver's id table and the
    canonicalization memos — would conflate distinct terms.
    [rebuilder ()] returns a memoizing bottom-up re-interning function;
    sharing within one batch is preserved (the memo is keyed on the stale
    ids, which are mutually consistent because they came from a single
    run's table). *)
let rebuilder () =
  let memo : (int, t) Hashtbl.t = Hashtbl.create 1024 in
  let rec go t =
    match Hashtbl.find_opt memo t.id with
    | Some t' -> t'
    | None ->
        let node' =
          match t.node with
          | Const _ | Var _ -> t.node
          | Bin (o, a, b) -> Bin (o, go a, go b)
          | Cmp (o, a, b) -> Cmp (o, go a, go b)
          | Ite (c, a, b) -> Ite (go c, go a, go b)
          | Concat (a, b) -> Concat (go a, go b)
          | Extract (h, l, a) -> Extract (h, l, go a)
        in
        let t' = mk node' t.width in
        Hashtbl.add memo t.id t';
        t'
  in
  go

(* ---------------- constructors with simplification ---------------- *)

(* The terms of the constants 0-255 at every width, filled as [const]
   builds them and emptied with the table by [reset]: a hit takes no lock.
   The executor builds a constant's term wherever a concrete value meets
   a symbolic one, and most of those constants are small. *)
let no_term = { id = -1; node = Var (-1); width = 0 }
let small = Array.make (65 * 256) no_term

let const w v =
  let v = norm w v in
  if v >= 0L && v < 256L then begin
    let i = (w lsl 8) lor Int64.to_int v in
    let t = small.(i) in
    if t != no_term then t
    else begin
      let t = mk (Const v) w in
      small.(i) <- t;
      t
    end
  end
  else mk (Const v) w

let var w id = mk (Var id) w
let tt = const 1 1L
let ff = const 1 0L

(** Drop all hash-consed terms; keeps long benchmark sessions from
    accumulating GC pressure.  The counter is kept, so a term that outlives
    the reset (a module-level constant, a caller's value) can never share
    an id with a term built after it.  The persistent boolean constants
    keep their identities. *)
let reset () =
  Mutex.protect lock (fun () ->
      NTbl.reset table;
      NTbl.replace table (tt.node, tt.width) tt;
      NTbl.replace table (ff.node, ff.width) ff;
      Array.fill small 0 (Array.length small) no_term;
      small.((1 lsl 8) lor 1) <- tt;
      small.(1 lsl 8) <- ff)
let bool_ b = if b then tt else ff

let is_const t = match t.node with Const _ -> true | _ -> false
let const_val t = match t.node with Const v -> Some v | _ -> None

let rec binop (op : binop) a b =
  let w = a.width in
  assert (b.width = w);
  match (a.node, b.node, op) with
  | (Const x, Const y, _) -> (
      match Ir.eval_binop op w x y with
      | Some v -> const w v
      | None -> mk (Bin (op, a, b)) w)
  | (_, Const 0L, (Add | Sub | Or | Xor | Shl | Lshr | Ashr)) -> a
  | (Const 0L, _, (Add | Or | Xor)) -> b
  | (_, Const 0L, (And | Mul)) -> const w 0L
  | (Const 0L, _, (And | Mul | Udiv | Urem | Shl | Lshr)) -> const w 0L
  | (_, Const 1L, (Mul | Udiv)) -> a
  | (Const 1L, _, Mul) -> b
  (* power-of-two strength reduction keeps divider circuits out of the CNF *)
  | (_, Const c, Udiv)
    when c > 0L && Int64.logand c (Int64.sub c 1L) = 0L ->
      let k = ref 0 and x = ref c in
      while !x > 1L do incr k; x := Int64.shift_right_logical !x 1 done;
      binop Lshr a (const w (Int64.of_int !k))
  | (_, Const c, Urem)
    when c > 0L && Int64.logand c (Int64.sub c 1L) = 0L ->
      binop And a (const w (Int64.sub c 1L))
  | (_, Const c, Mul)
    when c > 0L && Int64.logand c (Int64.sub c 1L) = 0L ->
      let k = ref 0 and x = ref c in
      while !x > 1L do incr k; x := Int64.shift_right_logical !x 1 done;
      binop Shl a (const w (Int64.of_int !k))
  | (_, Const c, And) when c = norm w (-1L) -> a
  | (Const c, _, And) when c = norm w (-1L) -> b
  | (_, Const c, Or) when c = norm w (-1L) -> const w c
  | (_, _, Sub) when a.id = b.id -> const w 0L
  | (_, _, Xor) when a.id = b.id -> const w 0L
  | (_, _, (And | Or)) when a.id = b.id -> a
  | _ ->
      (* canonicalize commutative constants to the right *)
      let (a, b) =
        match (op, a.node, b.node) with
        | ((Add | Mul | And | Or | Xor), Const _, _) -> (b, a)
        | _ -> (a, b)
      in
      mk (Bin (op, a, b)) w

and cmp (op : cmpop) a b =
  let w = a.width in
  assert (b.width = w);
  match (a.node, b.node) with
  | (Const x, Const y) -> bool_ (Ir.eval_cmp op w x y)
  | _ when a.id = b.id -> (
      match op with
      | Eq | Sle | Sge | Ule | Uge -> tt
      | Ne | Slt | Sgt | Ult | Ugt -> ff)
  | _ -> (
      (* (ite c x y) == k where x,y consts: reduce to c or !c *)
      match (a.node, b.node, op) with
      | (Ite (c, x, y), Const k, (Eq | Ne)) when is_const x && is_const y -> (
          let xv = Option.get (const_val x) and yv = Option.get (const_val y) in
          let eq_x = xv = k and eq_y = yv = k in
          let base =
            if eq_x && eq_y then tt
            else if eq_x then c
            else if eq_y then not_ c
            else ff
          in
          match op with Eq -> base | _ -> not_ base)
      | _ ->
          if w = 1 then
            (* boolean comparisons reduce to logic *)
            match (op, b.node) with
            | (Eq, Const 1L) -> a
            | (Eq, Const 0L) -> not_ a
            | (Ne, Const 0L) -> a
            | (Ne, Const 1L) -> not_ a
            | _ -> mk (Cmp (op, a, b)) 1
          else mk (Cmp (op, a, b)) 1)

and not_ t =
  match t.node with
  | Const v -> bool_ (v = 0L)
  | Bin (Xor, x, o) when o.node = Const 1L && t.width = 1 -> x
  | _ -> binop Xor t tt

let and_ a b =
  match (a.node, b.node) with
  | (Const 0L, _) | (_, Const 0L) -> ff
  | (Const 1L, _) -> b
  | (_, Const 1L) -> a
  | _ -> binop And a b

let or_ a b =
  match (a.node, b.node) with
  | (Const 1L, _) | (_, Const 1L) -> tt
  | (Const 0L, _) -> b
  | (_, Const 0L) -> a
  | _ -> binop Or a b

let ite c a b =
  assert (c.width = 1);
  assert (a.width = b.width);
  match c.node with
  | Const 1L -> a
  | Const 0L -> b
  | _ ->
      if a.id = b.id then a
      else if a.width = 1 && a.node = Const 1L && b.node = Const 0L then c
      else if a.width = 1 && a.node = Const 0L && b.node = Const 1L then not_ c
      else mk (Ite (c, a, b)) a.width

let rec extract ~hi ~lo t =
  assert (0 <= lo && lo <= hi && hi < t.width);
  let w = hi - lo + 1 in
  if w = t.width then t
  else
    match t.node with
    | Const v -> const w (Int64.shift_right_logical v lo)
    | Concat (h, l) when lo >= l.width ->
        extract ~hi:(hi - l.width) ~lo:(lo - l.width) h
    | Concat (_, l) when hi < l.width -> extract ~hi ~lo l
    | Extract (_, lo2, inner) -> extract ~hi:(hi + lo2) ~lo:(lo + lo2) inner
    | _ -> mk (Extract (hi, lo, t)) w

let concat hi lo =
  let w = hi.width + lo.width in
  assert (w <= 64);
  match (hi.node, lo.node) with
  | (Const h, Const l) ->
      const w (Int64.logor (Int64.shift_left h lo.width) l)
  | _ -> mk (Concat (hi, lo)) w

let zext w t =
  assert (w >= t.width);
  if w = t.width then t else concat (const (w - t.width) 0L) t

let sext w t =
  assert (w >= t.width);
  if w = t.width then t
  else
    match t.node with
    | Const v -> const w (Ir.to_signed t.width v)
    | _ ->
        let sign = extract ~hi:(t.width - 1) ~lo:(t.width - 1) t in
        let ext = ite sign (const (w - t.width) (-1L)) (const (w - t.width) 0L) in
        concat ext t

let trunc w t =
  assert (w <= t.width);
  extract ~hi:(w - 1) ~lo:0 t

(* ---------------- evaluation under an assignment ---------------- *)

(** Evaluate a term under a variable assignment; division by zero yields 0
    (matching the blasted circuit's conventional value is unnecessary — the
    executor always guards divisions). *)
let eval (lookup : int -> int64) (t : t) : int64 =
  (* only inner nodes are memoized, in a table that starts at the smallest
     size and grows with the term *)
  let memo = Hashtbl.create 1 in
  let rec go t =
    match t.node with
    | Const v -> v
    | Var id -> norm t.width (lookup id)
    | Bin _ | Cmp _ | Ite _ | Concat _ | Extract _ -> (
        match Hashtbl.find_opt memo t.id with
        | Some v -> v
        | None ->
            let v = inner t in
            Hashtbl.replace memo t.id v;
            v)
  and inner t =
    match t.node with
    | Const _ | Var _ -> go t
    | Bin (op, a, b) -> (
        match Ir.eval_binop op t.width (go a) (go b) with
        | Some v -> v
        | None -> 0L)
    | Cmp (op, a, b) ->
        if Ir.eval_cmp op a.width (go a) (go b) then 1L else 0L
    | Ite (c, a, b) -> if go c = 1L then go a else go b
    | Concat (h, l) -> Int64.logor (Int64.shift_left (go h) l.width) (go l)
    | Extract (hi, lo, x) ->
        norm (hi - lo + 1) (Int64.shift_right_logical (go x) lo)
  in
  go t

(** Collect the variables occurring in a term. *)
let vars (t : t) : (int, int) Hashtbl.t =
  let seen = Hashtbl.create 16 in
  let out = Hashtbl.create 16 in
  let rec go t =
    if not (Hashtbl.mem seen t.id) then begin
      Hashtbl.replace seen t.id ();
      match t.node with
      | Var id -> Hashtbl.replace out id t.width
      | Const _ -> ()
      | Bin (_, a, b) | Cmp (_, a, b) | Concat (a, b) -> go a; go b
      | Ite (c, a, b) -> go c; go a; go b
      | Extract (_, _, a) -> go a
    end
  in
  go t;
  out

let rec pp fmt (t : t) =
  match t.node with
  | Const v -> Format.fprintf fmt "%Ld:%d" v t.width
  | Var id -> Format.fprintf fmt "v%d:%d" id t.width
  | Bin (op, a, b) ->
      let s =
        match op with
        | Add -> "+" | Sub -> "-" | Mul -> "*" | Sdiv -> "/s" | Udiv -> "/u"
        | Srem -> "%s" | Urem -> "%u" | And -> "&" | Or -> "|" | Xor -> "^"
        | Shl -> "<<" | Lshr -> ">>u" | Ashr -> ">>s"
      in
      Format.fprintf fmt "(%a %s %a)" pp a s pp b
  | Cmp (op, a, b) ->
      let s =
        match op with
        | Eq -> "==" | Ne -> "!=" | Slt -> "<s" | Sle -> "<=s" | Sgt -> ">s"
        | Sge -> ">=s" | Ult -> "<u" | Ule -> "<=u" | Ugt -> ">u" | Uge -> ">=u"
      in
      Format.fprintf fmt "(%a %s %a)" pp a s pp b
  | Ite (c, a, b) -> Format.fprintf fmt "(ite %a %a %a)" pp c pp a pp b
  | Concat (a, b) -> Format.fprintf fmt "(%a ++ %a)" pp a pp b
  | Extract (hi, lo, a) -> Format.fprintf fmt "%a[%d:%d]" pp a hi lo

let to_string t = Format.asprintf "%a" pp t
