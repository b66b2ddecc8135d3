(** Dead-loop elimination (SSA form).

    After peeling, the residual loop's header is entered only from outside
    with known phi values (the final induction state), so its exit condition
    folds per entry edge.  If {e every} out-of-loop entry decides "exit",
    the body can never execute: the header's branch is rewritten to go
    straight to the exit, and CFG simplification sweeps the body away.

    This is what completes the paper's "removes loops from the program
    whenever possible": peeling + this pass deletes counted loops outright.

    One application finds the loops once.  A deletion keeps the loop list
    and the predecessor table current: the loops it swept away leave the
    list, the survivors lose swept blocks and are sorted by header RPO
    again, and only deleting a loop that sits inside another (whose blocks
    and latches that changes) finds the loops again. *)

module Ir = Overify_ir.Ir
module Cfg = Overify_ir.Cfg
module Loop = Overify_ir.Loop
module Verify = Overify_ir.Verify

(** Evaluate block [h]'s pure instruction results under an environment that
    maps header phis to the values flowing in from one predecessor; returns
    the folded constant for [reg] if everything relevant folds. *)
let eval_chain (h : Ir.block) (phi_env : (int, Ir.value) Hashtbl.t) (reg : int)
    : int64 option =
  let env : (int, int64 * Ir.ty) Hashtbl.t = Hashtbl.create 8 in
  let resolve v =
    match v with
    | Ir.Imm (c, ty) -> Some (c, ty)
    | Ir.Reg r -> (
        match Hashtbl.find_opt env r with
        | Some cv -> Some cv
        | None -> (
            match Hashtbl.find_opt phi_env r with
            | Some (Ir.Imm (c, ty)) -> Some (c, ty)
            | _ -> None))
    | Ir.Glob _ -> None
  in
  List.iter
    (fun i ->
      match i with
      | Ir.Phi (d, ty, _) -> (
          (* already in phi_env if constant for this pred *)
          match Hashtbl.find_opt phi_env d with
          | Some (Ir.Imm (c, _)) -> Hashtbl.replace env d (c, ty)
          | _ -> ())
      | Ir.Bin (d, op, ty, a, b) -> (
          match (resolve a, resolve b) with
          | (Some (va, _), Some (vb, _)) -> (
              match Ir.eval_binop op (Ir.bits_of_ty ty) va vb with
              | Some v -> Hashtbl.replace env d (v, ty)
              | None -> ())
          | _ -> ())
      | Ir.Cmp (d, op, ty, a, b) -> (
          match (resolve a, resolve b) with
          | (Some (va, _), Some (vb, _)) when ty <> Ir.Ptr ->
              Hashtbl.replace env d
                ((if Ir.eval_cmp op (Ir.bits_of_ty ty) va vb then 1L else 0L),
                 Ir.I1)
          | _ -> ())
      | Ir.Cast (d, op, to_ty, v, from_ty) -> (
          match resolve v with
          | Some (c, _) ->
              Hashtbl.replace env d (Ir.eval_cast op to_ty c from_ty, to_ty)
          | None -> ())
      | Ir.Select (d, ty, c, a, b) -> (
          match resolve c with
          | Some (1L, _) -> (
              match resolve a with
              | Some (v, _) -> Hashtbl.replace env d (v, ty)
              | None -> ())
          | Some (0L, _) -> (
              match resolve b with
              | Some (v, _) -> Hashtbl.replace env d (v, ty)
              | None -> ())
          | _ -> ())
      | _ -> ())
    h.Ir.insts;
  Option.map fst (Hashtbl.find_opt env reg)

(** The exit [l]'s header takes on every entry from outside, when all of
    them take it: then the body never runs. *)
let dead_exit (fn : Ir.func) preds (l : Loop.t) : int option =
  let h = Ir.find_block fn l.Loop.header in
  match h.Ir.term with
  | Ir.Cbr (Ir.Reg c, t, e) -> (
      let t_in = Loop.mem l t and e_in = Loop.mem l e in
      match (t_in, e_in) with
      | (true, false) | (false, true) ->
          let exit_target = if t_in then e else t in
          let exit_const = if t_in then 0L else 1L in
          let outside =
            List.filter (fun p -> not (Loop.mem l p))
              (Cfg.preds_of preds l.Loop.header)
          in
          if outside = [] then None
          else begin
            let all_exit =
              List.for_all
                (fun p ->
                  let phi_env = Hashtbl.create 8 in
                  List.iter
                    (fun i ->
                      match i with
                      | Ir.Phi (d, _, incoming) -> (
                          match List.assoc_opt p incoming with
                          | Some v -> Hashtbl.replace phi_env d v
                          | None -> ())
                      | _ -> ())
                    h.Ir.insts;
                  eval_chain h phi_env c = Some exit_const)
                outside
            in
            if all_exit then Some exit_target else None
          end
      | _ -> None)
  | _ -> None

(* the fields [dead_exit] reads *)
let view (l : Loop.t) = (l.Loop.header, Loop.IntSet.elements l.Loop.blocks)

(** Send [d]'s header straight to [exit_target] and sweep the unreachable
    body (and stale phi entries) away, keeping [preds] and the loop list
    current. *)
let delete (fn : Ir.func) preds loops (d : Loop.t) exit_target =
  let h = Ir.find_block fn d.Loop.header in
  let fn1 = Ir.update_block fn { h with Ir.term = Ir.Br exit_target } in
  (* one DFS gives what survives and the survivors' order *)
  let order = Cfg.rpo fn1 in
  let (fn2, _) = Cfg.sweep fn1 order in
  let rpo = Array.make (Array.length preds) (-1) in
  List.iteri (fun i l -> if l < Array.length rpo then rpo.(l) <- i) order;
  let live l = rpo.(l) >= 0 in
  let swept =
    List.filter (fun (b : Ir.block) -> not (live b.Ir.bid)) fn1.Ir.blocks
  in
  let drop p s = preds.(s) <- List.filter (fun q -> q <> p) preds.(s) in
  List.iter (fun s -> if s <> exit_target then drop h.Ir.bid s) (Cfg.succs h);
  List.iter
    (fun (b : Ir.block) ->
      List.iter (drop b.Ir.bid) (Cfg.succs b);
      preds.(b.Ir.bid) <- [])
    swept;
  let nested =
    List.exists
      (fun (m : Loop.t) ->
        m.Loop.header <> d.Loop.header && Loop.mem m d.Loop.header)
      loops
  in
  let loops =
    if nested then Loop.find fn2
    else
      List.filter
        (fun (m : Loop.t) -> m.Loop.header <> d.Loop.header && live m.Loop.header)
        loops
      |> List.map (fun (m : Loop.t) ->
             if List.exists (fun (b : Ir.block) -> Loop.mem m b.Ir.bid) swept
             then { m with Loop.blocks = Loop.IntSet.filter live m.Loop.blocks }
             else m)
      |> List.sort (fun (a : Loop.t) (b : Loop.t) ->
             compare rpo.(a.Loop.header) rpo.(b.Loop.header))
  in
  if !Verify.paranoid then
    Loop.check_current "loop_delete" view fn2 preds loops;
  (fn2, loops)

let run (stats : Stats.t) (fn : Ir.func) : Ir.func * bool =
  let preds = Cfg.preds fn in
  let rec go fn loops n any =
    if n = 0 then (fn, any)
    else
      (* from the first loop again: a deletion can sweep away an entry of
         an earlier loop and so make it deletable *)
      match
        List.find_map
          (fun l -> Option.map (fun e -> (l, e)) (dead_exit fn preds l))
          loops
      with
      | Some (d, exit_target) ->
          stats.Stats.loops_deleted <- stats.Stats.loops_deleted + 1;
          let (fn, loops) = delete fn preds loops d exit_target in
          go fn loops (n - 1) true
      | None -> (fn, any)
  in
  go fn (Loop.find fn) 8 false
