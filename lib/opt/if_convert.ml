(** If-conversion: speculation of side-effect-free acyclic regions into
    predicated straight-line code with selects (SSA form).

    This is where the cost model's [branch_cost] earns its keep.  A CPU
    converts an [if] to straight-line code only when the arm is a couple of
    instructions (GCC's [x &= -(test == 0)] example in the paper); under
    [-OVERIFY] a branch costs thousands of "instructions", so whole
    short-circuit DAGs are speculated — exactly the transformation producing
    the paper's Listing 2 branch-free loop body.

    Mechanism: starting from a conditional branch, grow a region of blocks
    whose predecessors are all inside the region and whose instructions are
    all speculatable.  The region is necessarily acyclic.  If it funnels into
    a single exit block, every region block's instructions are hoisted into
    the branch block in topological order; an [i1] path predicate is
    materialized per edge, phis inside the region and at the exit become
    select chains over those predicates. *)

module Ir = Overify_ir.Ir
module Cfg = Overify_ir.Cfg

module IntSet = Cfg.IntSet

type region = {
  head : Ir.block;          (* the branching block *)
  body : Ir.block list;     (* topological order *)
  exit : int;               (* merge block *)
  cost : int;               (* instructions to speculate *)
}

let block_speculatable (b : Ir.block) =
  List.for_all
    (fun i -> Ir.is_phi i || Ir.is_speculatable i)
    b.Ir.insts
  && (match b.Ir.term with Ir.Br _ | Ir.Cbr _ -> true | Ir.Ret _ | Ir.Unreachable -> false)

(** Grow a speculation region from [head]; returns it if the frontier
    collapses to a single exit within budget. *)
let find_region (fn : Ir.func) preds btbl budget (head : Ir.block) :
    region option =
  match head.Ir.term with
  | Ir.Cbr (_, t, e) when t <> e && t <> head.Ir.bid && e <> head.Ir.bid ->
      let in_region = ref (IntSet.singleton head.Ir.bid) in
      let body = ref [] in
      let cost = ref 0 in
      let frontier = ref (IntSet.of_list [ t; e ]) in
      let progress = ref true in
      while !progress do
        progress := false;
        IntSet.iter
          (fun x ->
            if (not !progress) && not (IntSet.mem x !in_region) then
              match Hashtbl.find_opt btbl x with
              | Some xb
                when x <> (Ir.entry fn).Ir.bid
                     && block_speculatable xb
                     && List.for_all
                          (fun p -> IntSet.mem p !in_region)
                          (Cfg.preds_of preds x)
                     (* no back edge to the head: the region must be a DAG
                        hanging off the branch, not a loop through it *)
                     && List.for_all (fun s -> s <> head.Ir.bid) (Cfg.succs xb)
                     && !cost + List.length xb.Ir.insts <= budget ->
                  progress := true;
                  in_region := IntSet.add x !in_region;
                  body := xb :: !body;
                  cost := !cost + List.length xb.Ir.insts;
                  frontier := IntSet.remove x !frontier;
                  List.iter
                    (fun s ->
                      if not (IntSet.mem s !in_region) then
                        frontier := IntSet.add s !frontier)
                    (Cfg.succs xb)
              | _ -> ())
          !frontier
      done;
      let body = List.rev !body in
      if body = [] then None
      else begin
        match IntSet.elements !frontier with
        | [ m ] when m <> head.Ir.bid ->
            Some { head; body; exit = m; cost = !cost }
        | _ -> None
      end
  | _ -> None

(** Flatten the region into its head block. *)
let convert (fn : Ir.func) (r : region) : Ir.func =
  let fresh = Ir.Fresh.of_func fn in
  let spec = ref [] in  (* reversed speculated instruction stream *)
  let emit i = spec := i :: !spec in
  (* edge predicates: (from, to) -> i1 value *)
  let edge : (int * int, Ir.value) Hashtbl.t = Hashtbl.create 16 in
  let not_ v =
    match v with
    | Ir.Imm (1L, Ir.I1) -> Ir.imm_bool false
    | Ir.Imm (0L, Ir.I1) -> Ir.imm_bool true
    | _ ->
        let d = Ir.Fresh.take fresh in
        emit (Ir.Bin (d, Ir.Xor, Ir.I1, v, Ir.imm Ir.I1 1L));
        Ir.Reg d
  in
  let and_ a b =
    match (a, b) with
    | (Ir.Imm (1L, Ir.I1), v) | (v, Ir.Imm (1L, Ir.I1)) -> v
    | _ ->
        let d = Ir.Fresh.take fresh in
        emit (Ir.Bin (d, Ir.And, Ir.I1, a, b));
        Ir.Reg d
  in
  let or_ a b =
    let d = Ir.Fresh.take fresh in
    emit (Ir.Bin (d, Ir.Or, Ir.I1, a, b));
    Ir.Reg d
  in
  let set_out_edges (b : Ir.block) (pred_val : Ir.value) =
    match b.Ir.term with
    | Ir.Br l -> Hashtbl.replace edge (b.Ir.bid, l) pred_val
    | Ir.Cbr (c, t, e) ->
        if t = e then Hashtbl.replace edge (b.Ir.bid, t) pred_val
        else begin
          Hashtbl.replace edge (b.Ir.bid, t) (and_ pred_val c);
          Hashtbl.replace edge (b.Ir.bid, e) (and_ pred_val (not_ c))
        end
    | Ir.Ret _ | Ir.Unreachable -> ()
  in
  set_out_edges r.head (Ir.imm_bool true);
  (* select chain for a phi's (pred, value) entries *)
  let select_chain ty entries ~def =
    match List.rev entries with
    | [] -> invalid_arg "if_convert: empty phi"
    | (_, vlast) :: rest ->
        let acc =
          List.fold_left
            (fun acc (ev, v) ->
              let d = Ir.Fresh.take fresh in
              emit (Ir.Select (d, ty, ev, v, acc));
              Ir.Reg d)
            vlast rest
        in
        (* bind the required destination register to the chain result *)
        (match def with
        | Some d -> emit (Ir.Select (d, ty, Ir.imm_bool true, acc, acc))
        | None -> ());
        acc
  in
  List.iter
    (fun (b : Ir.block) ->
      (* this block's predicate: OR of incoming edge predicates *)
      let inc =
        List.filter_map
          (fun ((f, t), v) -> if t = b.Ir.bid then Some (f, v) else None)
          (Hashtbl.fold (fun k v acc -> (k, v) :: acc) edge [])
      in
      let pred_val =
        match inc with
        | [] -> Ir.imm_bool false  (* unreachable region block *)
        | [ (_, v) ] -> v
        | (_, v) :: rest -> List.fold_left (fun acc (_, v') -> or_ acc v') v rest
      in
      List.iter
        (fun i ->
          match i with
          | Ir.Phi (d, ty, incoming) ->
              let entries =
                List.filter_map
                  (fun (p, v) ->
                    match Hashtbl.find_opt edge (p, b.Ir.bid) with
                    | Some ev -> Some (ev, v)
                    | None -> None)
                  incoming
              in
              ignore (select_chain ty entries ~def:(Some d))
          | i -> emit i)
        b.Ir.insts;
      set_out_edges b pred_val)
    r.body;
  (* rewrite the exit block's phis *)
  let region_bids =
    IntSet.add r.head.Ir.bid
      (IntSet.of_list (List.map (fun (b : Ir.block) -> b.Ir.bid) r.body))
  in
  let mb = Ir.find_block fn r.exit in
  let new_exit_insts =
    List.map
      (fun i ->
        match i with
        | Ir.Phi (d, ty, incoming) ->
            let from_region, outside =
              List.partition (fun (p, _) -> IntSet.mem p region_bids) incoming
            in
            if from_region = [] then i
            else begin
              let entries =
                List.map
                  (fun (p, v) ->
                    match Hashtbl.find_opt edge (p, r.exit) with
                    | Some ev -> (ev, v)
                    | None -> (Ir.imm_bool false, v))
                  from_region
              in
              let v = select_chain ty entries ~def:None in
              Ir.Phi (d, ty, (r.head.Ir.bid, v) :: outside)
            end
        | i -> i)
      mb.Ir.insts
  in
  let new_head =
    {
      r.head with
      Ir.insts = r.head.Ir.insts @ List.rev !spec;
      term = Ir.Br r.exit;
    }
  in
  let blocks =
    List.filter_map
      (fun (b : Ir.block) ->
        if b.Ir.bid = r.head.Ir.bid then Some new_head
        else if b.Ir.bid = r.exit then Some { mb with Ir.insts = new_exit_insts }
        else if IntSet.mem b.Ir.bid region_bids then None
        else Some b)
      fn.Ir.blocks
  in
  Ir.Fresh.commit fresh { fn with Ir.blocks }

let count_branches (r : region) =
  1
  + List.length
      (List.filter
         (fun (b : Ir.block) ->
           match b.Ir.term with Ir.Cbr (_, t, e) -> t <> e | _ -> false)
         r.body)

let run (cm : Costmodel.t) (stats : Stats.t) (fn : Ir.func) : Ir.func * bool =
  let budget = cm.Costmodel.branch_cost in
  if budget <= 0 then (fn, false)
  else begin
    (* built once per run and patched after each conversion: the body
       blocks disappear, the exit's predecessors from the region collapse
       into the head, and only the head and the exit blocks change.  That is
       exact for [find_region], which reads predecessors only by
       membership, and no other block's reachability changes *)
    let preds = Cfg.preds fn in
    let btbl = Ir.block_tbl fn in
    let reachable = ref (Cfg.reachable fn) in
    let patch (r : region) (fn' : Ir.func) =
      let body = List.map (fun (b : Ir.block) -> b.Ir.bid) r.body in
      List.iter
        (fun bid ->
          preds.(bid) <- [];
          Hashtbl.remove btbl bid;
          reachable := IntSet.remove bid !reachable)
        body;
      let head = r.head.Ir.bid in
      preds.(r.exit) <-
        head
        :: List.filter
             (fun p -> p <> head && not (List.mem p body))
             preds.(r.exit);
      List.iter
        (fun (b : Ir.block) ->
          if b.Ir.bid = head || b.Ir.bid = r.exit then
            Hashtbl.replace btbl b.Ir.bid b)
        fn'.Ir.blocks
    in
    let rec go fn n any =
      if n = 0 then (fn, any)
      else begin
        let found =
          List.find_map
            (fun (b : Ir.block) ->
              if IntSet.mem b.Ir.bid !reachable then
                find_region fn preds btbl budget b
              else None)
            fn.Ir.blocks
        in
        match found with
        | Some r ->
            stats.Stats.branches_converted <-
              stats.Stats.branches_converted + count_branches r;
            let fn' = convert fn r in
            patch r fn';
            go fn' (n - 1) true
        | None -> (fn, any)
      end
    in
    go fn 400 false
  end
