(** Loop-invariant code motion (SSA form): speculatable instructions whose
    operands dominate the loop preheader are hoisted into it.

    For compile-time sanity on heavily peeled functions, an application
    finds the loops once and ensures all preheaders first (the only CFG
    changes), then shares a single dominator tree and definition map across
    every loop's hoisting in each round. *)

module Ir = Overify_ir.Ir
module Cfg = Overify_ir.Cfg
module Dom = Overify_ir.Dom
module Loop = Overify_ir.Loop
module Verify = Overify_ir.Verify

(** Insert a preheader for [l], which has none: a block that becomes the
    unique out-of-loop predecessor of the header and branches only to it.
    Returns the function, [preds] kept current, and the new block; [None]
    when the header is the function entry or has no outside predecessor. *)
let insert_preheader (fn : Ir.func) preds (l : Loop.t) :
    (Ir.func * int list array * int) option =
  let entry_bid = (Ir.entry fn).Ir.bid in
  let outside =
    List.filter (fun p -> not (Loop.mem l p)) (Cfg.preds_of preds l.Loop.header)
  in
  if l.Loop.header = entry_bid || outside = [] then None
  else begin
    let fresh = Ir.Fresh.of_func fn in
    let pre_bid = Ir.Fresh.take fresh in
    (* split header phis: out-of-loop entries move into the preheader *)
    let header_blk = Ir.find_block fn l.Loop.header in
    let pre_phis = ref [] in
    let new_header_insts =
      List.map
        (fun i ->
          match i with
          | Ir.Phi (d, ty, incoming) ->
              let outs, ins =
                List.partition (fun (p, _) -> List.mem p outside) incoming
              in
              let pre_val =
                match outs with
                | [ (_, v) ] -> v
                | _ ->
                    let pd = Ir.Fresh.take fresh in
                    pre_phis := Ir.Phi (pd, ty, outs) :: !pre_phis;
                    Ir.Reg pd
              in
              Ir.Phi (d, ty, (pre_bid, pre_val) :: ins)
          | i -> i)
        header_blk.Ir.insts
    in
    let pre_blk =
      {
        Ir.bid = pre_bid;
        insts = List.rev !pre_phis;
        term = Ir.Br l.Loop.header;
      }
    in
    let blocks =
      List.concat_map
        (fun (b : Ir.block) ->
          if b.Ir.bid = l.Loop.header then
            [ pre_blk; { b with Ir.insts = new_header_insts } ]
          else if List.mem b.Ir.bid outside then
            [ { b with
                Ir.term =
                  Cfg.redirect_term l.Loop.header pre_bid b.Ir.term } ]
          else [ b ])
        fn.Ir.blocks
    in
    let fn = Ir.Fresh.commit fresh { fn with Ir.blocks } in
    (* the outside entries move to the preheader, which sits just before
       the header in block order *)
    let preds =
      Array.append preds
        (Array.make (max 0 (fn.Ir.next - Array.length preds)) [])
    in
    let inside = List.filter (Loop.mem l) preds.(l.Loop.header) in
    preds.(pre_bid) <- outside;
    preds.(l.Loop.header) <-
      List.filter_map
        (fun (b : Ir.block) ->
          if b.Ir.bid = pre_bid || List.mem b.Ir.bid inside then Some b.Ir.bid
          else None)
        blocks;
    Some (fn, preds, pre_bid)
  end

(* the fields [insert_preheader] and [hoist_round] read *)
let view (l : Loop.t) =
  (l.Loop.header, Loop.IntSet.elements l.Loop.blocks, l.Loop.preheader)

(** Phase 1: give every loop that can have one a preheader, and return the
    loops that have one, with it.  The loops are found once: a new
    preheader joins the blocks of every loop around its loop and changes
    nothing else the pass reads. *)
let ensure_preheaders (fn : Ir.func) : Ir.func * (Loop.t * int) list =
  let loops = Array.of_list (Loop.find fn) in
  let fn = ref fn and preds = ref (Cfg.preds fn) in
  Array.iteri
    (fun i (l : Loop.t) ->
      if l.Loop.preheader = None then
        match insert_preheader !fn !preds l with
        | Some (fn', preds', pre) ->
            fn := fn';
            preds := preds';
            loops.(i) <- { l with Loop.preheader = Some pre };
            Array.iteri
              (fun j (m : Loop.t) ->
                if j <> i && Loop.mem m l.Loop.header then
                  loops.(j) <-
                    { m with Loop.blocks = Loop.IntSet.add pre m.Loop.blocks })
              loops;
            if !Verify.paranoid then
              Loop.check_current "licm" view !fn !preds (Array.to_list loops)
        | None -> ())
    loops;
  ( !fn,
    List.filter_map
      (fun (l : Loop.t) -> Option.map (fun p -> (l, p)) l.Loop.preheader)
      (Array.to_list loops) )

(** One hoisting round over all loops, sharing [dom]/[def_block]/[btbl];
    instruction motion does not change the CFG, so they stay valid. *)
let hoist_round (stats : Stats.t) (fn : Ir.func)
    (loops_with_pre : (Loop.t * int) list) : Ir.func * bool =
  let dom = Dom.compute fn in
  let def_block = Hashtbl.create 256 in
  List.iter
    (fun (r, _) -> Hashtbl.replace def_block r (Ir.entry fn).Ir.bid)
    fn.Ir.params;
  Ir.iter_insts
    (fun b i ->
      match Ir.def_of_inst i with
      | Some d -> Hashtbl.replace def_block d b.Ir.bid
      | None -> ())
    fn;
  let btbl = Ir.block_tbl fn in
  let any = ref false in
  List.iter
    (fun (l, pre) ->
      let available_at_pre v =
        match v with
        | Ir.Imm _ | Ir.Glob _ -> true
        | Ir.Reg r -> (
            match Hashtbl.find_opt def_block r with
            | Some db -> Dom.dominates dom db pre
            | None -> false)
      in
      let hoisted = ref [] in
      let changed = ref true in
      while !changed do
        changed := false;
        Cfg.IntSet.iter
          (fun bid ->
            match Hashtbl.find_opt btbl bid with
            | None -> ()
            | Some b ->
                let keep, moved =
                  List.partition
                    (fun i ->
                      not
                        (Ir.is_speculatable i
                        && List.for_all available_at_pre (Ir.uses_of_inst i)))
                    b.Ir.insts
                in
                if moved <> [] then begin
                  changed := true;
                  any := true;
                  List.iter
                    (fun i ->
                      (match Ir.def_of_inst i with
                      | Some d -> Hashtbl.replace def_block d pre
                      | None -> ());
                      hoisted := i :: !hoisted;
                      stats.Stats.insts_hoisted <- stats.Stats.insts_hoisted + 1)
                    moved;
                  Hashtbl.replace btbl bid { b with Ir.insts = keep }
                end)
          l.Loop.blocks
      done;
      if !hoisted <> [] then begin
        let pre_blk = Hashtbl.find btbl pre in
        Hashtbl.replace btbl pre
          { pre_blk with Ir.insts = pre_blk.Ir.insts @ List.rev !hoisted }
      end)
    loops_with_pre;
  if not !any then (fn, false)
  else
    ( { fn with
        Ir.blocks =
          List.map (fun (b : Ir.block) -> Hashtbl.find btbl b.Ir.bid) fn.Ir.blocks
      },
      true )

let run (stats : Stats.t) (fn : Ir.func) : Ir.func * bool =
  let (fn, loops_with_pre) = ensure_preheaders fn in
  (* phase 2: hoist across all loops with one dominator tree per round *)
  let rec go fn budget any =
    if budget = 0 then (fn, any)
    else begin
      let (fn, changed) = hoist_round stats fn loops_with_pre in
      if changed then go fn (budget - 1) true else (fn, any)
    end
  in
  go fn 4 false
