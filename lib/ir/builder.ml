(** Imperative function builder used by the frontend lowering and by tests
    that construct IR by hand. *)

open Ir

type bstate = {
  mutable b_insts : inst list;  (* reversed *)
  mutable b_term : term option;
}

type t = {
  name : string;
  ret : ty;
  params : (int * ty) list;
  mutable counter : int;
  mutable order : int list;  (* block ids, reversed creation order *)
  tbl : (int, bstate) Hashtbl.t;
  mutable cur : int;  (* insertion block *)
  mutable entry_allocas : inst list;  (* reversed; prepended to entry *)
}

(** Create a builder; [params] gives parameter types, their registers are
    allocated here and can be read back with {!param_regs}.  The entry block
    is created and selected. *)
let create ~name ~params ~ret =
  let counter = ref 0 in
  let fresh () = let v = !counter in incr counter; v in
  let params = List.map (fun ty -> (fresh (), ty)) params in
  let entry = fresh () in
  let tbl = Hashtbl.create 16 in
  Hashtbl.replace tbl entry { b_insts = []; b_term = None };
  {
    name;
    ret;
    params;
    counter = !counter;
    order = [ entry ];
    tbl;
    cur = entry;
    entry_allocas = [];
  }

let param_regs t = List.map fst t.params

let fresh t = let v = t.counter in t.counter <- v + 1; v

(** Create a new (empty, unterminated) block and return its label; does not
    change the insertion point. *)
let new_block t =
  let l = fresh t in
  Hashtbl.replace t.tbl l { b_insts = []; b_term = None };
  t.order <- l :: t.order;
  l

let switch_to t l =
  if not (Hashtbl.mem t.tbl l) then invalid_arg "Builder.switch_to: no block";
  t.cur <- l

let current t = t.cur

let is_terminated t =
  match (Hashtbl.find t.tbl t.cur).b_term with Some _ -> true | None -> false

let add_inst t i =
  let bs = Hashtbl.find t.tbl t.cur in
  match bs.b_term with
  | Some _ -> invalid_arg "Builder.add_inst: block already terminated"
  | None -> bs.b_insts <- i :: bs.b_insts

(** Set the current block's terminator; no-op if already terminated (handy
    after [break]/[return] statements). *)
let term t tm =
  let bs = Hashtbl.find t.tbl t.cur in
  match bs.b_term with Some _ -> () | None -> bs.b_term <- Some tm

(* convenience instruction constructors, each returns the defined value *)

let bin t op ty a b = let d = fresh t in add_inst t (Bin (d, op, ty, a, b)); Reg d
let cmp t op ty a b = let d = fresh t in add_inst t (Cmp (d, op, ty, a, b)); Reg d
let select t ty c a b =
  let d = fresh t in add_inst t (Select (d, ty, c, a, b)); Reg d
let cast t op to_ty v from_ty =
  let d = fresh t in add_inst t (Cast (d, op, to_ty, v, from_ty)); Reg d
let alloca t ty n = let d = fresh t in add_inst t (Alloca (d, ty, n)); Reg d
let load t ty p = let d = fresh t in add_inst t (Load (d, ty, p)); Reg d
let store t ty v p = add_inst t (Store (ty, v, p))
let gep t base scale idx =
  let d = fresh t in add_inst t (Gep (d, base, scale, idx)); Reg d
let call t ty fn args =
  if ty = Void then begin add_inst t (Call (None, Void, fn, args)); None end
  else begin
    let d = fresh t in
    add_inst t (Call (Some d, ty, fn, args));
    Some (Reg d)
  end

(** Allocate stack storage hoisted into the entry block, regardless of the
    current insertion point.  All frontend allocas go through this so the
    memory-form invariant holds: the only registers live across block
    boundaries are entry-block allocas. *)
let entry_alloca t ty n =
  let d = fresh t in
  t.entry_allocas <- Alloca (d, ty, n) :: t.entry_allocas;
  Reg d

(** Finalize into a function; every created block must be terminated. *)
let finish t : func =
  let blocks =
    List.rev_map
      (fun bid ->
        let bs = Hashtbl.find t.tbl bid in
        match bs.b_term with
        | Some tm -> { bid; insts = List.rev bs.b_insts; term = tm }
        | None ->
            invalid_arg
              (Printf.sprintf "Builder.finish: block L%d of %s unterminated"
                 bid t.name))
      t.order
  in
  let blocks =
    match blocks with
    | e :: rest ->
        { e with insts = List.rev_append t.entry_allocas e.insts } :: rest
    | [] -> blocks
  in
  {
    fname = t.name;
    params = t.params;
    ret = t.ret;
    blocks;
    next = t.counter;
    fmeta = [];
  }
