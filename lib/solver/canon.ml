(** Canonicalization of assertion sets: structural digests for sorting,
    variable sets for independence, and α-renaming serialization for
    cache keys.  See canon.mli for the contracts. *)

type ctx = {
  digests : (int, int64 * int64) Hashtbl.t;  (* term id -> 128-bit digest *)
  varsets : (int, int list) Hashtbl.t;       (* term id -> sorted var ids *)
}

let create () = { digests = Hashtbl.create 512; varsets = Hashtbl.create 512 }

(* ---------------- structural digests ---------------- *)

let opcode_bin : Bv.binop -> int = function
  | Bv.Add -> 1 | Bv.Sub -> 2 | Bv.Mul -> 3
  | Bv.Sdiv -> 4 | Bv.Udiv -> 5 | Bv.Srem -> 6 | Bv.Urem -> 7
  | Bv.And -> 8 | Bv.Or -> 9 | Bv.Xor -> 10
  | Bv.Shl -> 11 | Bv.Lshr -> 12 | Bv.Ashr -> 13

let opcode_cmp : Bv.cmpop -> int = function
  | Bv.Eq -> 1 | Bv.Ne -> 2
  | Bv.Slt -> 3 | Bv.Sle -> 4 | Bv.Sgt -> 5 | Bv.Sge -> 6
  | Bv.Ult -> 7 | Bv.Ule -> 8 | Bv.Ugt -> 9 | Bv.Uge -> 10

(* splitmix64 finalizer: full-avalanche 64-bit mix *)
let mix64 z =
  let z =
    Int64.mul
      (Int64.logxor z (Int64.shift_right_logical z 30))
      0xbf58476d1ce4e5b9L
  in
  let z =
    Int64.mul
      (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94d049bb133111ebL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

let fold h x = mix64 (Int64.add (Int64.mul h 0x9e3779b97f4a7c15L) x)

(* two independent 64-bit chains (different seeds) make accidental
   collisions vanishingly rare; a collision is still harmless — digests
   only order terms, with a structural compare as tie-break, and are never
   used as cache keys *)
let rec digest ctx (t : Bv.t) : int64 * int64 =
  match Hashtbl.find_opt ctx.digests t.Bv.id with
  | Some d -> d
  | None ->
      let parts =
        match t.Bv.node with
        | Bv.Const c -> [ 1L; Int64.of_int t.Bv.width; c ]
        | Bv.Var v -> [ 2L; Int64.of_int t.Bv.width; Int64.of_int v ]
        | Bv.Bin (op, a, b) ->
            let (a1, a2) = digest ctx a and (b1, b2) = digest ctx b in
            [ 3L; Int64.of_int (opcode_bin op); Int64.of_int t.Bv.width;
              a1; a2; b1; b2 ]
        | Bv.Cmp (op, a, b) ->
            let (a1, a2) = digest ctx a and (b1, b2) = digest ctx b in
            [ 4L; Int64.of_int (opcode_cmp op); a1; a2; b1; b2 ]
        | Bv.Ite (c, a, b) ->
            let (c1, c2) = digest ctx c
            and (a1, a2) = digest ctx a
            and (b1, b2) = digest ctx b in
            [ 5L; Int64.of_int t.Bv.width; c1; c2; a1; a2; b1; b2 ]
        | Bv.Concat (a, b) ->
            let (a1, a2) = digest ctx a and (b1, b2) = digest ctx b in
            [ 6L; Int64.of_int t.Bv.width; a1; a2; b1; b2 ]
        | Bv.Extract (hi, lo, a) ->
            let (a1, a2) = digest ctx a in
            [ 7L; Int64.of_int hi; Int64.of_int lo; a1; a2 ]
      in
      let d =
        (List.fold_left fold 0x5bf03635f0935ad1L parts,
         List.fold_left fold 0x27220a95fe1dbf9aL parts)
      in
      Hashtbl.replace ctx.digests t.Bv.id d;
      d

(* deterministic, id-independent structural order; only reached on digest
   collisions, so the tree recursion cost never matters in practice *)
let rec struct_compare (a : Bv.t) (b : Bv.t) : int =
  if a == b then 0
  else
    match compare a.Bv.width b.Bv.width with
    | 0 -> (
        let tag (t : Bv.t) =
          match t.Bv.node with
          | Bv.Const _ -> 0 | Bv.Var _ -> 1 | Bv.Bin _ -> 2 | Bv.Cmp _ -> 3
          | Bv.Ite _ -> 4 | Bv.Concat _ -> 5 | Bv.Extract _ -> 6
        in
        match compare (tag a) (tag b) with
        | 0 -> (
            match (a.Bv.node, b.Bv.node) with
            | (Bv.Const x, Bv.Const y) -> compare x y
            | (Bv.Var x, Bv.Var y) -> compare x y
            | (Bv.Bin (o1, a1, b1), Bv.Bin (o2, a2, b2)) -> (
                match compare (opcode_bin o1) (opcode_bin o2) with
                | 0 -> (
                    match struct_compare a1 a2 with
                    | 0 -> struct_compare b1 b2
                    | c -> c)
                | c -> c)
            | (Bv.Cmp (o1, a1, b1), Bv.Cmp (o2, a2, b2)) -> (
                match compare (opcode_cmp o1) (opcode_cmp o2) with
                | 0 -> (
                    match struct_compare a1 a2 with
                    | 0 -> struct_compare b1 b2
                    | c -> c)
                | c -> c)
            | (Bv.Ite (c1, a1, b1), Bv.Ite (c2, a2, b2)) -> (
                match struct_compare c1 c2 with
                | 0 -> (
                    match struct_compare a1 a2 with
                    | 0 -> struct_compare b1 b2
                    | c -> c)
                | c -> c)
            | (Bv.Concat (a1, b1), Bv.Concat (a2, b2)) -> (
                match struct_compare a1 a2 with
                | 0 -> struct_compare b1 b2
                | c -> c)
            | (Bv.Extract (h1, l1, a1), Bv.Extract (h2, l2, a2)) -> (
                match compare (h1, l1) (h2, l2) with
                | 0 -> struct_compare a1 a2
                | c -> c)
            | _ -> assert false (* tags equal *))
        | c -> c)
    | c -> c

let compare_terms ctx a b =
  if a == b then 0
  else
    match compare (digest ctx a) (digest ctx b) with
    | 0 -> struct_compare a b
    | c -> c

(* ---------------- variable sets ---------------- *)

let term_vars ctx (t : Bv.t) : int list =
  match Hashtbl.find_opt ctx.varsets t.Bv.id with
  | Some vs -> vs
  | None ->
      let vs =
        List.sort compare
          (Hashtbl.fold (fun id _w acc -> id :: acc) (Bv.vars t) [])
      in
      Hashtbl.replace ctx.varsets t.Bv.id vs;
      vs

(* ---------------- normalize ---------------- *)

let normalize ctx (assertions : Bv.t list) : Bv.t list =
  let sorted = List.stable_sort (compare_terms ctx) assertions in
  let rec dedup = function
    | a :: (b :: _ as rest) when (a : Bv.t).Bv.id = (b : Bv.t).Bv.id ->
        dedup rest
    | a :: rest -> a :: dedup rest
    | [] -> []
  in
  dedup sorted

(* ---------------- α-renaming serialization ---------------- *)

type renamed = { key : string; cvars : int array }

(* decimal digits straight into the buffer, as [%d] prints them *)
let rec add_int buf n =
  if n < 0 then Buffer.add_string buf (string_of_int n)
  else begin
    if n >= 10 then add_int buf (n / 10);
    Buffer.add_char buf (Char.unsafe_chr (48 + (n mod 10)))
  end

(* one node: a tag, then its fields separated by ':' *)
let add_node buf tag fields =
  Buffer.add_char buf tag;
  List.iteri
    (fun i f ->
      if i > 0 then Buffer.add_char buf ':';
      add_int buf f)
    fields;
  Buffer.add_char buf ';'

let rename _ctx (assertions : Bv.t list) : renamed =
  let buf = Buffer.create 256 in
  let nodes = Hashtbl.create 64 in (* term id -> canonical node index *)
  let vmap = Hashtbl.create 16 in  (* var id -> canonical var index *)
  let vorder = ref [] in
  let next = ref 0 in
  (* postorder of first visit: shared subterms emitted once, referenced by
     node index — linear in the DAG, not the unfolded tree.  A node's line
     follows its children's. *)
  let rec go (t : Bv.t) : int =
    match Hashtbl.find_opt nodes t.Bv.id with
    | Some i -> i
    | None ->
        let w = t.Bv.width in
        (match t.Bv.node with
        | Bv.Const c ->
            Buffer.add_char buf 'c';
            add_int buf w;
            Buffer.add_char buf ':';
            Buffer.add_string buf (Int64.to_string c);
            Buffer.add_char buf ';'
        | Bv.Var v ->
            let cv =
              match Hashtbl.find_opt vmap v with
              | Some i -> i
              | None ->
                  let i = Hashtbl.length vmap in
                  Hashtbl.replace vmap v i;
                  vorder := v :: !vorder;
                  i
            in
            add_node buf 'v' [ w; cv ]
        | Bv.Bin (op, a, b) ->
            let ia = go a in
            let ib = go b in
            add_node buf 'b' [ opcode_bin op; w; ia; ib ]
        | Bv.Cmp (op, a, b) ->
            let ia = go a in
            let ib = go b in
            add_node buf 'p' [ opcode_cmp op; ia; ib ]
        | Bv.Ite (c, a, b) ->
            let ic = go c in
            let ia = go a in
            let ib = go b in
            add_node buf 'i' [ w; ic; ia; ib ]
        | Bv.Concat (a, b) ->
            let ia = go a in
            let ib = go b in
            add_node buf 'n' [ w; ia; ib ]
        | Bv.Extract (hi, lo, a) ->
            let ia = go a in
            add_node buf 'x' [ hi; lo; ia ]);
        let i = !next in
        incr next;
        Hashtbl.replace nodes t.Bv.id i;
        i
  in
  let roots = List.map go assertions in
  Buffer.add_char buf '|';
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_char buf ',';
      add_int buf r)
    roots;
  { key = Buffer.contents buf; cvars = Array.of_list (List.rev !vorder) }

let model_of_canon (r : renamed) (values : int64 array) : (int * int64) list =
  List.init (Array.length r.cvars) (fun i -> (r.cvars.(i), values.(i)))
