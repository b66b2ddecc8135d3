(** Jump threading (SSA form), the paper's §3 example: "checks whether a
    conditional branch jumps to a location where another condition is
    subsumed by the first one; if yes, the first branch is redirected
    correspondingly, turning two jumps into one."

    We implement the correlated-condition case: an empty block [S] that
    branches on the same SSA register as its unique predecessor's branch is
    bypassed — the predecessor jumps straight to the side the condition
    implies. *)

module Ir = Overify_ir.Ir
module Cfg = Overify_ir.Cfg

let thread_once (fn : Ir.func) : Ir.func option =
  let preds = Cfg.preds fn in
  let btbl = Ir.block_tbl fn in
  let entry_bid = (Ir.entry fn).Ir.bid in
  let candidate = ref None in
  List.iter
    (fun (s : Ir.block) ->
      if !candidate = None && s.Ir.bid <> entry_bid && s.Ir.insts = [] then
        match (s.Ir.term, Cfg.preds_of preds s.Ir.bid) with
        | (Ir.Cbr (Ir.Reg c, t2, e2), [ p ]) -> (
            match Hashtbl.find_opt btbl p with
            | Some pb -> (
                match pb.Ir.term with
                | Ir.Cbr (Ir.Reg c', t, e) when c' = c && t <> e ->
                    if t = s.Ir.bid then
                      (* condition is true on this edge *)
                      candidate := Some (p, s.Ir.bid, t2)
                    else if e = s.Ir.bid then
                      candidate := Some (p, s.Ir.bid, e2)
                | _ -> ())
            | None -> ())
        | _ -> ())
    fn.Ir.blocks;
  match !candidate with
  | None -> None
  | Some (p, s_bid, target) ->
      (* redirect p's edge s -> target; s becomes unreachable (single pred)
         and [run] removes it.  The phi entries of [target] for pred [s]
         become entries for [p]; values incoming from the empty [s]
         dominate [p] (see the threading precondition). *)
      let pb = Hashtbl.find btbl p in
      let pb' = { pb with Ir.term = Cfg.redirect_term s_bid target pb.Ir.term } in
      let tb = Hashtbl.find btbl target in
      let tb' =
        let fix = function
          | Ir.Phi (d, ty, incoming) -> (
              match List.assoc_opt s_bid incoming with
              | Some v when not (List.mem_assoc p incoming) ->
                  Ir.Phi (d, ty, (p, v) :: incoming)
              | _ -> Ir.Phi (d, ty, incoming))
          | i -> i
        in
        { tb with Ir.insts = List.map fix tb.Ir.insts }
      in
      (* if target already had p as a predecessor and has phis, threading
         would create a duplicate entry; bail out in that case *)
      let target_preds = Cfg.preds_of preds target in
      let has_phi = List.exists Ir.is_phi tb.Ir.insts in
      if has_phi && List.mem p target_preds then None
      else begin
        let blocks =
          List.map
            (fun (b : Ir.block) ->
              if b.Ir.bid = p then pb'
              else if b.Ir.bid = target then tb'
              else b)
            fn.Ir.blocks
        in
        Some { fn with Ir.blocks }
      end

let run (stats : Stats.t) (fn : Ir.func) : Ir.func * bool =
  let rec go fn n any =
    if n = 0 then (fn, any)
    else
      match thread_once fn with
      | Some fn' ->
          stats.Stats.jumps_threaded <- stats.Stats.jumps_threaded + 1;
          (* the bypassed block is now unreachable, and so may be blocks
             only it reached: drop them with their phi entries, whose
             values no longer dominate those dead edges *)
          let (fn', _) = Cfg.remove_unreachable fn' in
          go fn' (n - 1) true
      | None -> (fn, any)
  in
  go fn 32 false
