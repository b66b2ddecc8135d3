(** Loop unswitching on memory-form IR.

    A conditional branch inside a loop whose condition is loop-invariant is
    hoisted: the loop is duplicated, one copy assumes the condition true, the
    other false, and a dispatch block evaluates the condition once.  This is
    the transformation behind the paper's motivating example: unswitching
    [wc]'s [any != 0] turns O(3^n) paths into O(2^n).

    Invariance is established syntactically: the condition is computed inside
    the branch block from loads of non-escaping scalar slots (or globals)
    that nothing in the loop writes. *)

module Ir = Overify_ir.Ir
module Cfg = Overify_ir.Cfg
module Loop = Overify_ir.Loop
module IntSet = Cfg.IntSet

(** Slots (alloca registers) defined in [blocks] whose address never
    escapes there: used only as the direct pointer operand of loads and
    stores. *)
let non_escaping_slots (blocks : Ir.block list) : IntSet.t =
  let allocas = ref [] in
  let escaped = Hashtbl.create 64 in
  let esc v =
    match v with
    | Ir.Reg r -> Hashtbl.replace escaped r ()
    | _ -> ()
  in
  List.iter
    (fun (b : Ir.block) ->
      List.iter
        (fun i ->
          match i with
          | Ir.Load (_, _, _) -> ()  (* pointer operand use is fine *)
          | Ir.Store (_, v, _) -> esc v
          | Ir.Alloca (d, _, _) -> allocas := d :: !allocas
          | i -> List.iter esc (Ir.uses_of_inst i))
        b.Ir.insts;
      List.iter esc (Ir.uses_of_term b.Ir.term))
    blocks;
  IntSet.of_list (List.filter (fun d -> not (Hashtbl.mem escaped d)) !allocas)

(** Instructions allowed in a hoistable condition chain: pure, non-trapping,
    and any loads read whole non-escaping slots or globals. *)
let chain_inst_ok safe_slots loop_writes_globals has_calls = function
  | Ir.Bin (_, (Ir.Sdiv | Ir.Udiv | Ir.Srem | Ir.Urem), _, _, _) -> false
  | Ir.Bin _ | Ir.Cmp _ | Ir.Select _ | Ir.Cast _ -> true
  | Ir.Load (_, _, Ir.Reg p) -> IntSet.mem p safe_slots
  | Ir.Load (_, _, Ir.Glob g) ->
      (not has_calls) && not (List.mem g loop_writes_globals)
  | _ -> false

(** The sub-sequence of [blk]'s instructions needed to compute [cond],
    in original order, or [None] if the chain leaves the block or uses a
    disallowed instruction. *)
let condition_chain (blk : Ir.block) (cond : int) safe_slots writes has_calls :
    Ir.inst list option =
  let deftbl = Hashtbl.create 16 in
  List.iter
    (fun i ->
      match Ir.def_of_inst i with
      | Some d -> Hashtbl.replace deftbl d i
      | None -> ())
    blk.Ir.insts;
  let needed = Hashtbl.create 16 in
  let ok = ref true in
  let rec visit r =
    if !ok && not (Hashtbl.mem needed r) then
      match Hashtbl.find_opt deftbl r with
      | None ->
          (* defined outside the block: only allocas (slot addresses) are
             valid cross-block registers in memory form; a raw slot address
             as a leaf is fine *)
          if not (IntSet.mem r safe_slots) then ok := false
      | Some i ->
          if chain_inst_ok safe_slots writes has_calls i then begin
            Hashtbl.replace needed r ();
            List.iter
              (fun v -> match v with Ir.Reg r' -> visit r' | _ -> ())
              (Ir.uses_of_inst i)
          end
          else ok := false
  in
  visit cond;
  if not !ok then None
  else
    Some
      (List.filter
         (fun i ->
           match Ir.def_of_inst i with
           | Some d -> Hashtbl.mem needed d
           | None -> false)
         blk.Ir.insts)

(** Loads in the chain must be invariant: collect the slots/globals the loop
    writes. *)
let loop_stores (fn : Ir.func) (l : Loop.t) =
  let slots = ref IntSet.empty and globals = ref [] and calls = ref false in
  List.iter
    (fun (b : Ir.block) ->
      if Loop.mem l b.Ir.bid then
        List.iter
          (fun i ->
            match i with
            | Ir.Store (_, _, Ir.Reg p) -> slots := IntSet.add p !slots
            | Ir.Store (_, _, Ir.Glob g) -> globals := g :: !globals
            | Ir.Store (_, _, _) -> calls := true  (* unknown target *)
            | Ir.Call _ -> calls := true
            | _ -> ())
          b.Ir.insts)
    fn.blocks;
  (!slots, !globals, !calls)

(** Attempt one unswitch anywhere in [fn]; returns the transformed function
    on success. *)
let unswitch_one (cm : Costmodel.t) (fn : Ir.func) : Ir.func option =
  let loops = Loop.find fn in
  let safe = non_escaping_slots fn.Ir.blocks in
  let entry_bid = (Ir.entry fn).bid in
  let preds = Cfg.preds fn in
  let try_loop (l : Loop.t) : Ir.func option =
    let size =
      List.fold_left
        (fun acc (b : Ir.block) ->
          if Loop.mem l b.Ir.bid then acc + List.length b.Ir.insts + 1 else acc)
        0 fn.Ir.blocks
    in
    if size > cm.Costmodel.unswitch_size_limit then None
    else begin
      let (wslots, wglobals, has_calls) = loop_stores fn l in
      let safe_invariant = IntSet.diff safe wslots in
      (* a candidate branch: Cbr inside the loop, both targets inside the
         loop (so the unswitch actually changes intra-loop structure), with a
         hoistable chain.  The header's own exit branch is excluded; the
         chain loads would not be invariant for it anyway in typical code. *)
      let candidate =
        List.find_opt
          (fun (b : Ir.block) ->
            Loop.mem l b.Ir.bid
            &&
            match b.Ir.term with
            | Ir.Cbr (Ir.Reg c, t, e) ->
                t <> e && Loop.mem l t && Loop.mem l e
                && condition_chain b c safe_invariant wglobals has_calls <> None
            | _ -> false)
          fn.Ir.blocks
      in
      match candidate with
      | None -> None
      | Some bblk ->
          let (cond, _t_target, e_target) =
            match bblk.Ir.term with
            | Ir.Cbr (Ir.Reg c, t, e) -> (c, t, e)
            | _ -> assert false
          in
          let chain =
            match
              condition_chain bblk cond safe_invariant wglobals has_calls
            with
            | Some c -> c
            | None -> assert false
          in
          let fresh = Ir.Fresh.of_func fn in
          let loop_blocks =
            List.filter (fun (b : Ir.block) -> Loop.mem l b.Ir.bid) fn.Ir.blocks
          in
          let cloned = Clone.clone_blocks ~fresh loop_blocks in
          (* original copy assumes the condition true *)
          let fix_orig (b : Ir.block) =
            if b.Ir.bid = bblk.Ir.bid then
              { b with Ir.term = (match b.Ir.term with
                                  | Ir.Cbr (_, t, _) -> Ir.Br t
                                  | t -> t) }
            else b
          in
          (* cloned copy assumes it false *)
          let cloned_b_bid = Hashtbl.find cloned.Clone.label_map bblk.Ir.bid in
          let fix_clone (b : Ir.block) =
            if b.Ir.bid = cloned_b_bid then
              { b with
                Ir.term =
                  (match b.Ir.term with
                  | Ir.Cbr (_, _, e) -> Ir.Br e
                  | t -> t);
              }
            else b
          in
          ignore e_target;
          let cloned_blocks = List.map fix_clone cloned.Clone.blocks in
          (* dispatch block: re-evaluate the chain, branch to a copy *)
          let chain' =
            let rmap = Hashtbl.create 8 in
            List.map
              (fun i ->
                let i =
                  Ir.map_inst_values
                    (fun r ->
                      match Hashtbl.find_opt rmap r with
                      | Some r' -> Ir.Reg r'
                      | None -> Ir.Reg r)
                    i
                in
                match Ir.def_of_inst i with
                | Some d ->
                    let d' = Ir.Fresh.take fresh in
                    Hashtbl.replace rmap d d';
                    (match i with
                    | Ir.Bin (_, op, ty, a, b) -> Ir.Bin (d', op, ty, a, b)
                    | Ir.Cmp (_, op, ty, a, b) -> Ir.Cmp (d', op, ty, a, b)
                    | Ir.Select (_, ty, c, a, b) -> Ir.Select (d', ty, c, a, b)
                    | Ir.Cast (_, op, t2, v, t1) -> Ir.Cast (d', op, t2, v, t1)
                    | Ir.Load (_, ty, p) -> Ir.Load (d', ty, p)
                    | _ -> assert false)
                | None -> assert false)
              chain
          in
          let cond' =
            match List.rev chain' with
            | last :: _ -> (
                match Ir.def_of_inst last with
                | Some d -> Ir.Reg d
                | None -> assert false)
            | [] -> assert false
          in
          let cloned_header = Hashtbl.find cloned.Clone.label_map l.Loop.header in
          let dispatch_bid = Ir.Fresh.take fresh in
          let dispatch =
            {
              Ir.bid = dispatch_bid;
              insts = chain';
              term = Ir.Cbr (cond', l.Loop.header, cloned_header);
            }
          in
          (* entry edges into the loop now go through the dispatch *)
          let outside_preds =
            List.filter
              (fun p -> not (Loop.mem l p))
              (Cfg.preds_of preds l.Loop.header)
          in
          let blocks =
            List.map
              (fun (b : Ir.block) ->
                let b = fix_orig b in
                if List.mem b.Ir.bid outside_preds then
                  { b with
                    Ir.term =
                      Cfg.redirect_term l.Loop.header dispatch_bid b.Ir.term }
                else b)
              fn.Ir.blocks
          in
          let blocks =
            if l.Loop.header = entry_bid then (dispatch :: blocks) @ cloned_blocks
            else blocks @ (dispatch :: cloned_blocks)
          in
          Some (Ir.Fresh.commit fresh { fn with Ir.blocks })
    end
  in
  List.fold_left
    (fun acc l -> match acc with Some _ -> acc | None -> try_loop l)
    None loops

let has_phis (fn : Ir.func) =
  let p = ref false in
  Ir.iter_insts (fun _ i -> if Ir.is_phi i then p := true) fn;
  !p

let run (cm : Costmodel.t) (stats : Stats.t) (fn : Ir.func) : Ir.func * bool =
  (* memory form only: cloning loop bodies is sound because no registers are
     live across block boundaries except allocas; with phis, exit blocks
     would need new incoming entries *)
  if cm.Costmodel.unswitch_rounds <= 0 || has_phis fn then (fn, false)
  else begin
    let rec go fn n any =
      if n = 0 then (fn, any)
      else
        match unswitch_one cm fn with
        | Some fn' ->
            stats.Stats.loops_unswitched <- stats.Stats.loops_unswitched + 1;
            go fn' (n - 1) true
        | None -> (fn, any)
    in
    go fn cm.Costmodel.unswitch_rounds false
  end
