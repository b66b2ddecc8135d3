(** Loop unrolling by peeling, on memory-form IR.

    A counted loop [for (i = C0; i `pred` C1; i += C2)] whose trip count [T]
    is a compile-time constant is peeled [T] times; the residual loop stays
    in place, so the transformation is semantics-preserving {e even if the
    trip-count analysis were wrong} — correctness never depends on the
    analysis, only effectiveness does.  Once mem2reg and folding run, the
    peeled headers' conditions fold to constants, the copies straighten into
    a branch-free line, and the residual loop becomes unreachable.

    [-OVERIFY] "removes loops from the program whenever possible, even if
    this increases the program size" (paper §4); the cost model's
    [unroll_trip_limit]/[unroll_size_limit] encode how far each level goes. *)

module Ir = Overify_ir.Ir
module Cfg = Overify_ir.Cfg
module Loop = Overify_ir.Loop
module IntSet = Cfg.IntSet

type counted = {
  islot : int;       (* the induction variable's alloca register *)
  trip : int;        (* exact number of iterations before first exit *)
}

(** Simulate the counted loop to get the exact trip count (handles any
    predicate/step combination, including wrap-around), bounded by [limit]. *)
let simulate ~ty ~init ~bound ~pred ~continue_on ~step ~stepop ~limit =
  let bits = Ir.bits_of_ty ty in
  let rec go i count =
    if count > limit then None
    else
      let cont = Ir.eval_cmp pred bits i bound = continue_on in
      if not cont then Some count
      else
        match Ir.eval_binop stepop bits i step with
        | Some i' -> go i' (count + 1)
        | None -> None
  in
  go (Ir.norm ty init) 0

(** Match the header pattern: [%a = load islot; %c = icmp pred %a, C1] with
    the terminator branching on [%c]. *)
let match_header (blk : Ir.block) safe_slots l =
  match blk.Ir.term with
  | Ir.Cbr (Ir.Reg c, t, e) -> (
      let deftbl = Hashtbl.create 8 in
      List.iter
        (fun i ->
          match Ir.def_of_inst i with
          | Some d -> Hashtbl.replace deftbl d i
          | None -> ())
        blk.Ir.insts;
      match Hashtbl.find_opt deftbl c with
      | Some (Ir.Cmp (_, pred, ty, Ir.Reg a, Ir.Imm (bound, _))) -> (
          match Hashtbl.find_opt deftbl a with
          | Some (Ir.Load (_, lty, Ir.Reg islot))
            when lty = ty && IntSet.mem islot safe_slots ->
              (* which direction continues the loop? *)
              let t_in = Loop.mem l t and e_in = Loop.mem l e in
              if t_in && not e_in then
                Some (islot, ty, pred, bound, true)
              else if e_in && not t_in then
                Some (islot, ty, pred, bound, false)
              else None
          | _ -> None)
      | _ -> None)
  | _ -> None

(** Find the unique in-loop increment [load; add/sub imm; store] of [islot]
    in the latch block, and check no other in-loop store touches it. *)
let match_step (fn : Ir.func) (l : Loop.t) islot ty =
  match l.Loop.latches with
  | [ latch ] -> (
      let stores_elsewhere = ref false in
      List.iter
        (fun (b : Ir.block) ->
          if Loop.mem l b.Ir.bid && b.Ir.bid <> latch then
            List.iter
              (fun i ->
                match i with
                | Ir.Store (_, _, Ir.Reg p) when p = islot ->
                    stores_elsewhere := true
                | _ -> ())
              b.Ir.insts)
        fn.Ir.blocks;
      if !stores_elsewhere then None
      else begin
        let lb = Ir.find_block fn latch in
        let deftbl = Hashtbl.create 8 in
        List.iter
          (fun i ->
            match Ir.def_of_inst i with
            | Some d -> Hashtbl.replace deftbl d i
            | None -> ())
          lb.Ir.insts;
        let found = ref None and count = ref 0 in
        List.iter
          (fun i ->
            match i with
            | Ir.Store (_, Ir.Reg v, Ir.Reg p) when p = islot -> (
                incr count;
                match Hashtbl.find_opt deftbl v with
                | Some (Ir.Bin (_, ((Ir.Add | Ir.Sub) as op), bty, Ir.Reg x, Ir.Imm (step, _)))
                  when bty = ty -> (
                    match Hashtbl.find_opt deftbl x with
                    | Some (Ir.Load (_, _, Ir.Reg p2)) when p2 = islot ->
                        found := Some (op, step)
                    | _ -> ())
                | _ -> ())
            | Ir.Store (_, _, Ir.Reg p) when p = islot -> incr count
            | _ -> ())
          lb.Ir.insts;
        if !count = 1 then !found else None
      end)
  | _ -> None

(** Find the constant initial value: the last store to [islot] in the loop's
    unique outside predecessor block. *)
let match_init (fn : Ir.func) (l : Loop.t) preds islot =
  let outside =
    List.filter (fun p -> not (Loop.mem l p)) (Cfg.preds_of preds l.Loop.header)
  in
  match outside with
  | [ p ] -> (
      let pb = Ir.find_block fn p in
      let last = ref None in
      List.iter
        (fun i ->
          match i with
          | Ir.Store (_, v, Ir.Reg q) when q = islot ->
              last := Some v
          | _ -> ())
        pb.Ir.insts;
      match !last with
      | Some (Ir.Imm (v, _)) -> Some (v, p)
      | _ -> None)
  | _ -> None

let analyze (cm : Costmodel.t) (fn : Ir.func) preds safe_slots (l : Loop.t) :
    (counted * int) option =
  let header_blk = Ir.find_block fn l.Loop.header in
  match match_header header_blk safe_slots l with
  | None -> None
  | Some (islot, ty, pred, bound, continue_on) -> (
      match match_step fn l islot ty with
      | None -> None
      | Some (stepop, step) -> (
          match match_init fn l preds islot with
          | None -> None
          | Some (init, entry_pred) -> (
              match
                simulate ~ty ~init ~bound ~pred ~continue_on ~step ~stepop
                  ~limit:cm.Costmodel.unroll_trip_limit
              with
              | Some trip when trip > 0 ->
                  let size =
                    List.fold_left
                      (fun acc (b : Ir.block) ->
                        if Loop.mem l b.Ir.bid then
                          acc + List.length b.Ir.insts + 1
                        else acc)
                      0 fn.Ir.blocks
                  in
                  if size * trip <= cm.Costmodel.unroll_size_limit then begin
                    ignore entry_pred;
                    Some ({ islot; trip }, trip)
                  end
                  else None
              | _ -> None)))

(** Peel [trip] copies of the loop in front of it. *)
let peel (fn : Ir.func) (l : Loop.t) ~trip : Ir.func =
  let fresh = Ir.Fresh.of_func fn in
  let preds = Cfg.preds fn in
  let loop_blocks =
    List.filter (fun (b : Ir.block) -> Loop.mem l b.Ir.bid) fn.Ir.blocks
  in
  let header = l.Loop.header in
  let copies =
    List.init trip (fun _ -> Clone.clone_blocks ~fresh loop_blocks)
  in
  (* wire copy k's back edges to copy k+1's header (or the residual loop) *)
  let headers =
    List.map (fun c -> Hashtbl.find c.Clone.label_map header) copies
  in
  let next_header = Array.of_list (List.tl headers @ [ header ]) in
  let wired =
    List.concat
      (List.mapi
         (fun k (c : Clone.result) ->
           let my_header = List.nth headers k in
           List.map
             (fun (b : Ir.block) ->
               { b with
                 Ir.term = Cfg.redirect_term my_header next_header.(k) b.Ir.term })
             c.Clone.blocks)
         copies)
  in
  (* entry edges now enter the first copy *)
  let first_header = List.nth headers 0 in
  let outside =
    List.filter (fun p -> not (Loop.mem l p)) (Cfg.preds_of preds header)
  in
  let blocks =
    List.map
      (fun (b : Ir.block) ->
        if List.mem b.Ir.bid outside then
          { b with Ir.term = Cfg.redirect_term header first_header b.Ir.term }
        else b)
      fn.Ir.blocks
  in
  let entry_bid = (Ir.entry fn).Ir.bid in
  let blocks =
    if header = entry_bid then
      (* keep the entry first: the first peeled header becomes the entry *)
      let first_copy_blocks, rest_copies =
        match copies with
        | c :: _ ->
            let ids = Hashtbl.fold (fun _ v acc -> IntSet.add v acc)
                        c.Clone.label_map IntSet.empty in
            List.partition (fun (b : Ir.block) -> IntSet.mem b.Ir.bid ids) wired
        | [] -> ([], wired)
      in
      (* order: entry copy's header first *)
      let entry_first =
        List.sort
          (fun (a : Ir.block) (b : Ir.block) ->
            if a.Ir.bid = first_header then -1
            else if b.Ir.bid = first_header then 1
            else 0)
          first_copy_blocks
      in
      entry_first @ rest_copies @ blocks
    else blocks @ wired
  in
  Ir.Fresh.commit fresh { fn with Ir.blocks }

let run (cm : Costmodel.t) (stats : Stats.t) (fn : Ir.func) : Ir.func * bool =
  (* memory form only; see Loop_unswitch.run *)
  if cm.Costmodel.unroll_trip_limit <= 0 || Loop_unswitch.has_phis fn then
    (fn, false)
  else begin
    let changed = ref false in
    let rec go fn budget =
      if budget = 0 then fn
      else begin
        let preds = Cfg.preds fn in
        let safe = Loop_unswitch.non_escaping_slots fn in
        let loops = Loop.find fn in
        let candidate =
          List.find_map
            (fun l ->
              match analyze cm fn preds safe l with
              | Some (c, trip) -> Some (l, c, trip)
              | None -> None)
            loops
        in
        match candidate with
        | Some (l, _c, trip) ->
            changed := true;
            stats.Stats.loops_unrolled <- stats.Stats.loops_unrolled + 1;
            go (peel fn l ~trip) (budget - 1)
        | None -> fn
      end
    in
    let fn = go fn 16 in
    (fn, !changed)
  end
