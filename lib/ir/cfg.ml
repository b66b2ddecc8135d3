(** Control-flow graph queries over a function's blocks. *)

open Ir

module IntSet = Set.Make (Int)
module IntMap = Map.Make (Int)

let succs_of_term = function
  | Br l -> [ l ]
  | Cbr (_, t, e) -> if t = e then [ t ] else [ t; e ]
  | Ret _ | Unreachable -> []

let succs (b : block) = succs_of_term b.term

(** One past the largest label of [fn]: labels are below [fn.next] in
    well-formed IR, but the bound also covers every block id and branch
    target, so the label-indexed arrays below stay total on IR under
    construction. *)
let label_bound (fn : func) =
  List.fold_left
    (fun n b ->
      List.fold_left (fun n s -> max n (s + 1)) (max n (b.bid + 1)) (succs b))
    fn.next fn.blocks

let block_array (fn : func) : block option array =
  let a = Array.make (label_bound fn) None in
  List.iter (fun b -> a.(b.bid) <- Some b) fn.blocks;
  a

(** Predecessor table: label -> predecessor block ids, in block order.
    Walking the blocks backwards and consing gives that order directly. *)
let preds (fn : func) : int list array =
  let tbl = Array.make (label_bound fn) [] in
  let is_block = Bytes.make (Array.length tbl) '\000' in
  List.iter (fun b -> Bytes.set is_block b.bid '\001') fn.blocks;
  List.iter
    (fun b ->
      List.iter
        (fun s ->
          if Bytes.get is_block s <> '\000' then tbl.(s) <- b.bid :: tbl.(s))
        (succs b))
    (List.rev fn.blocks);
  tbl

let preds_of tbl bid =
  if bid >= 0 && bid < Array.length tbl then tbl.(bid) else []

(** Reverse postorder of the labels reachable from [entry] (entry first),
    by a DFS on an explicit stack that visits successors in order: the
    order a recursive DFS gives, at any depth.  A branch target without a
    block is visited as a node without successors, so the stack never holds
    more than one such label, on top of at most one frame per block. *)
let rpo_of_array (blocks : block option array) (entry : int) : int list =
  let seen = Bytes.make (Array.length blocks) '\000' in
  let depth =
    Array.fold_left (fun n b -> match b with Some _ -> n + 1 | None -> n) 1 blocks
  in
  let node = Array.make depth 0 and todo = Array.make depth [] in
  let sp = ref 0 and order = ref [] in
  let push l =
    Bytes.set seen l '\001';
    node.(!sp) <- l;
    todo.(!sp) <- (match blocks.(l) with Some b -> succs b | None -> []);
    incr sp
  in
  push entry;
  while !sp > 0 do
    let top = !sp - 1 in
    match todo.(top) with
    | [] ->
        order := node.(top) :: !order;
        decr sp
    | s :: rest ->
        todo.(top) <- rest;
        if Bytes.get seen s = '\000' then push s
  done;
  !order

(** Reverse postorder of reachable blocks (entry first). *)
let rpo (fn : func) : int list = rpo_of_array (block_array fn) (entry fn).bid

(** Postorder of reachable blocks (entry last). *)
let postorder (fn : func) : int list = List.rev (rpo fn)

(** Blocks reachable from the entry. *)
let reachable (fn : func) : IntSet.t = IntSet.of_list (rpo fn)

(** Drop the blocks missing from [order], the labels [rpo fn] reaches, and
    prune phi incoming entries coming from dropped blocks; only a block with
    such an entry is rebuilt. *)
let sweep (fn : func) (order : int list) : func * bool =
  if List.length order = List.length fn.blocks then (fn, false)
  else
    let live = Bytes.make (label_bound fn) '\000' in
    List.iter (fun l -> Bytes.set live l '\001') order;
    let live l = Bytes.get live l <> '\000' in
    let stale = function
      | Phi (_, _, incoming) -> List.exists (fun (p, _) -> not (live p)) incoming
      | _ -> false
    in
    let prune_phi = function
      | Phi (d, ty, incoming) ->
          Phi (d, ty, List.filter (fun (p, _) -> live p) incoming)
      | i -> i
    in
    let blocks =
      List.filter_map
        (fun b ->
          if not (live b.bid) then None
          else if List.exists stale b.insts then
            Some { b with insts = List.map prune_phi b.insts }
          else Some b)
        fn.blocks
    in
    ({ fn with blocks }, true)

(** Drop blocks not reachable from the entry, and prune phi incoming entries
    coming from removed blocks. *)
let remove_unreachable (fn : func) : func * bool = sweep fn (rpo fn)

(** Replace successor [from_l] with [to_l] in a terminator. *)
let redirect_term from_l to_l = function
  | Br l when l = from_l -> Br to_l
  | Cbr (c, t, e) when t = from_l || e = from_l ->
      Cbr (c, (if t = from_l then to_l else t), if e = from_l then to_l else e)
  | t -> t

(** In block [bid]'s phis, retarget incoming edges from [from_pred] to
    [to_pred]. *)
let retarget_phis (b : block) ~from_pred ~to_pred =
  let fix = function
    | Phi (d, ty, incoming) ->
        Phi
          ( d,
            ty,
            List.map
              (fun (p, v) -> ((if p = from_pred then to_pred else p), v))
              incoming )
    | i -> i
  in
  { b with insts = List.map fix b.insts }
