(** Global value numbering / common-subexpression elimination over the
    dominator tree, including redundant-load elimination.

    Loads are the interesting case for the paper: collapsing repeated loads
    of the same pointer is what makes branch arms pure so that if-conversion
    can remove them — the paper's Listing 2 speculates the character-class
    test on the already-loaded byte.  Memory dependence is handled
    conservatively:

    - if the function contains {e no} stores and no calls that could write
      memory, a dominating load of the same pointer is always reusable;
    - otherwise loads are only reused within a block, up to the next
      store/call. *)

module Ir = Overify_ir.Ir
module Dom = Overify_ir.Dom

type key =
  | KBin of Ir.binop * Ir.ty * Ir.value * Ir.value
  | KCmp of Ir.cmp * Ir.ty * Ir.value * Ir.value
  | KSel of Ir.ty * Ir.value * Ir.value * Ir.value
  | KCast of Ir.castop * Ir.ty * Ir.value * Ir.ty
  | KGep of Ir.value * int * Ir.value
  | KLoad of Ir.ty * Ir.value

let commutative = function
  | Ir.Add | Ir.Mul | Ir.And | Ir.Or | Ir.Xor -> true
  | _ -> false

(* canonicalize operand order for commutative operations *)
let key_of_inst (i : Ir.inst) : (key * int) option =
  match i with
  | Ir.Bin (d, op, ty, a, b) ->
      let (a, b) = if commutative op && compare b a < 0 then (b, a) else (a, b) in
      Some (KBin (op, ty, a, b), d)
  | Ir.Cmp (d, op, ty, a, b) -> Some (KCmp (op, ty, a, b), d)
  | Ir.Select (d, ty, c, a, b) -> Some (KSel (ty, c, a, b), d)
  | Ir.Cast (d, op, to_ty, v, from_ty) -> Some (KCast (op, to_ty, v, from_ty), d)
  | Ir.Gep (d, base, scale, idx) -> Some (KGep (base, scale, idx), d)
  | Ir.Load (d, ty, p) -> Some (KLoad (ty, p), d)
  | _ -> None

let writes_memory = function
  | Ir.Store _ -> true
  | Ir.Call _ -> true  (* conservative: any call may write *)
  | _ -> false

let function_is_memory_quiet (fn : Ir.func) =
  let quiet = ref true in
  Ir.iter_insts (fun _ i -> if writes_memory i then quiet := false) fn;
  !quiet

let run (fn : Ir.func) : Ir.func * bool =
  let quiet = function_is_memory_quiet fn in
  let dom = Dom.compute fn in
  let btbl = Ir.block_tbl fn in
  let changed = ref false in
  let subst : (int, Ir.value) Hashtbl.t = Hashtbl.create 16 in
  let rec resolve v =
    match v with
    | Ir.Reg r -> (
        match Hashtbl.find_opt subst r with
        | Some v' when v' <> v -> resolve v'
        | Some v' -> v'
        | None -> v)
    | _ -> v
  in
  (* available expressions of the dominating blocks: one table, from
     which each block removes the keys it added once its dominator subtree
     is done.  Keys are unique along a dominator path, so that restores
     the parent's table exactly.  In a function that writes memory, load
     facts live in a block-local table instead, emptied at every write *)
  let avail : (key, int) Hashtbl.t = Hashtbl.create 64 in
  let local_loads : (key, int) Hashtbl.t = Hashtbl.create 16 in
  let clear_loads () =
    if Hashtbl.length local_loads > 0 then Hashtbl.reset local_loads
  in
  let rec walk bid =
    let b = Hashtbl.find btbl bid in
    clear_loads ();
    let added = ref [] in
    let insts =
      List.filter
        (fun i ->
          let i' = Ir.map_inst_values (fun r -> resolve (Ir.Reg r)) i in
          if writes_memory i' then clear_loads ();
          match key_of_inst i' with
          | None -> true
          | Some (key, d) -> (
              let tbl =
                match key with
                | KLoad _ when not quiet -> local_loads
                | _ -> avail
              in
              match Hashtbl.find_opt tbl key with
              | Some prev ->
                  changed := true;
                  Hashtbl.replace subst d (Ir.Reg prev);
                  false
              | None ->
                  Hashtbl.replace tbl key d;
                  if tbl == avail then added := key :: !added;
                  true))
        b.insts
    in
    Hashtbl.replace btbl bid { b with Ir.insts = insts };
    List.iter walk (Dom.children dom bid);
    List.iter (Hashtbl.remove avail) !added
  in
  walk (Ir.entry fn).bid;
  if !changed then begin
    let f r = resolve (Ir.Reg r) in
    let blocks =
      List.map
        (fun (b : Ir.block) ->
          let nb = Hashtbl.find btbl b.Ir.bid in
          {
            nb with
            Ir.insts = List.map (Ir.map_inst_values f) nb.Ir.insts;
            term = Ir.map_term_values f nb.Ir.term;
          })
        fn.blocks
    in
    ({ fn with blocks }, true)
  end
  else (fn, false)
