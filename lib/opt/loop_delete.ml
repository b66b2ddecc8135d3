(** Dead-loop elimination (SSA form).

    After peeling, the residual loop's header is entered only from outside
    with known phi values (the final induction state), so its exit condition
    folds per entry edge.  If {e every} out-of-loop entry decides "exit",
    the body can never execute: the header's branch is rewritten to go
    straight to the exit, and CFG simplification sweeps the body away.

    This is what completes the paper's "removes loops from the program
    whenever possible": peeling + this pass deletes counted loops outright. *)

module Ir = Overify_ir.Ir
module Cfg = Overify_ir.Cfg
module Loop = Overify_ir.Loop

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

let delete_one (fn : Ir.func) : Ir.func option =
  let loops = Loop.find fn in
  let preds = Cfg.preds fn in
  let try_loop (l : Loop.t) =
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
              if all_exit then
                Some (Ir.update_block fn { h with Ir.term = Ir.Br exit_target })
              else None
            end
        | _ -> None)
    | _ -> None
  in
  List.find_map try_loop loops

let run (stats : Stats.t) (fn : Ir.func) : Ir.func * bool =
  let rec go fn n any =
    if n = 0 then (fn, any)
    else
      match delete_one fn with
      | Some fn' ->
          stats.Stats.loops_deleted <- stats.Stats.loops_deleted + 1;
          (* the body is now unreachable; prune it (and stale phi entries)
             before re-running the loop analysis *)
          let (fn', _) = Cfg.remove_unreachable fn' in
          go fn' (n - 1) true
      | None -> (fn, any)
  in
  go fn 8 false
