(** Structural validator for the IR; run after every pass in tests.

    Checks performed:
    - block ids are unique; terminator targets exist
    - register definitions are unique (SSA single-assignment)
    - phis form a prefix of their block and never appear in the entry block
    - phi incoming labels exactly match the block's CFG predecessors
    - every used register has a definition or is a parameter
    - operand types agree with instruction signatures
    - with [~ssa:true], every use is dominated by its definition
    - with [~memform:true], there are no phis at all *)

open Ir

module IntSet = Cfg.IntSet

let check ?(ssa = false) ?(memform = false) (fn : func) :
    (unit, string list) result =
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  (* unique block ids *)
  let bids = Hashtbl.create 16 in
  List.iter
    (fun b ->
      if Hashtbl.mem bids b.bid then err "duplicate block L%d" b.bid;
      Hashtbl.replace bids b.bid ())
    fn.blocks;
  (* terminator targets *)
  List.iter
    (fun b ->
      List.iter
        (fun s -> if not (Hashtbl.mem bids s) then
            err "L%d: branch to missing block L%d" b.bid s)
        (Cfg.succs b))
    fn.blocks;
  (* defs *)
  let defs = Hashtbl.create 64 in
  List.iter (fun (r, ty) -> Hashtbl.replace defs r ty) fn.params;
  List.iter
    (fun b ->
      List.iter
        (fun i ->
          match def_of_inst i with
          | Some d ->
              if Hashtbl.mem defs d then
                err "L%d: register %%%d defined twice" b.bid d;
              Hashtbl.replace defs d (ty_of_inst i)
          | None -> ())
        b.insts)
    fn.blocks;
  (* ids below next *)
  Hashtbl.iter
    (fun r _ -> if r >= fn.next then err "register %%%d >= next (%d)" r fn.next)
    defs;
  List.iter
    (fun b -> if b.bid >= fn.next then err "block L%d >= next (%d)" b.bid fn.next)
    fn.blocks;
  (* phi placement *)
  let preds = Cfg.preds fn in
  let entry_bid = (entry fn).bid in
  List.iter
    (fun b ->
      let seen_nonphi = ref false in
      List.iter
        (fun i ->
          if is_phi i then begin
            if memform then err "L%d: phi present in memory form" b.bid;
            if b.bid = entry_bid then err "entry block L%d has a phi" b.bid;
            if !seen_nonphi then err "L%d: phi after non-phi instruction" b.bid
          end
          else seen_nonphi := true)
        b.insts;
      List.iter
        (function
          | Phi (d, _, incoming) ->
              let ps = IntSet.of_list (Cfg.preds_of preds b.bid) in
              let ls = IntSet.of_list (List.map fst incoming) in
              if not (IntSet.equal ps ls) then
                err "L%d: phi %%%d incoming labels do not match predecessors" b.bid d;
              if List.length incoming
                 <> IntSet.cardinal (IntSet.of_list (List.map fst incoming))
              then err "L%d: phi %%%d has duplicate incoming labels" b.bid d
          | _ -> ())
        b.insts)
    fn.blocks;
  (* uses are defined; types check *)
  let vty = function
    | Imm (_, ty) -> Some ty
    | Glob _ -> Some Ptr
    | Reg r -> Hashtbl.find_opt defs r
  in
  let want where v ty =
    match vty v with
    | None -> err "%s: use of undefined %s" where (Printer.string_of_value v)
    | Some t when t <> ty ->
        err "%s: %s has type %s, expected %s" where (Printer.string_of_value v)
          (Printer.string_of_ty t) (Printer.string_of_ty ty)
    | Some _ -> ()
  in
  List.iter
    (fun b ->
      List.iter
        (fun i ->
          let where = Printf.sprintf "L%d: %s" b.bid (Printer.string_of_inst i) in
          match i with
          | Bin (_, _, ty, a, bb) ->
              if not (is_int_ty ty) then err "%s: non-integer binop type" where;
              want where a ty; want where bb ty
          | Cmp (_, _, ty, a, bb) -> want where a ty; want where bb ty
          | Select (_, ty, c, a, bb) ->
              want where c I1; want where a ty; want where bb ty
          | Cast (_, op, to_ty, v, from_ty) ->
              want where v from_ty;
              let fb = bits_of_ty from_ty and tb = bits_of_ty to_ty in
              (match op with
              | Zext | Sext ->
                  if tb < fb then err "%s: extension to narrower type" where
              | Trunc -> if tb > fb then err "%s: trunc to wider type" where)
          | Alloca (_, ty, n) ->
              if n <= 0 then err "%s: alloca count %d" where n;
              if size_of_ty ty <= 0 then err "%s: alloca of empty type" where
          | Load (_, ty, p) ->
              if not (is_int_ty ty || ty = Ptr) then
                err "%s: load of non-scalar" where;
              want where p Ptr
          | Store (ty, v, p) -> want where v ty; want where p Ptr
          | Gep (_, base, scale, idx) ->
              want where base Ptr;
              if scale <= 0 then err "%s: gep scale %d" where scale;
              (match vty idx with
              | Some (I32 | I64) | None -> ()
              | Some _ -> err "%s: gep index must be i32/i64" where)
          | Call _ -> ()  (* signature checking happens at link time *)
          | Phi (_, ty, incoming) ->
              List.iter (fun (_, v) -> want where v ty) incoming)
        b.insts;
      match b.term with
      | Cbr (c, _, _) -> want (Printf.sprintf "L%d: cbr" b.bid) c I1
      | Ret (Some v) ->
          if fn.ret = Void then err "L%d: ret value in void function" b.bid
          else want (Printf.sprintf "L%d: ret" b.bid) v fn.ret
      | Ret None ->
          if fn.ret <> Void then err "L%d: missing return value" b.bid
      | Br _ | Unreachable -> ())
    fn.blocks;
  (* SSA dominance *)
  if ssa && !errs = [] then begin
    let dom = Dom.compute fn in
    let def_block = Hashtbl.create 64 in
    List.iter
      (fun b ->
        List.iter
          (fun i ->
            match def_of_inst i with
            | Some d -> Hashtbl.replace def_block d b.bid
            | None -> ())
          b.insts)
      fn.blocks;
    let param_regs = IntSet.of_list (List.map fst fn.params) in
    (* [where] is printed only for an error: the check runs after every
       pass in paranoid mode *)
    let check_use where user_bid v =
      match v with
      | Reg r when not (IntSet.mem r param_regs) -> (
          match Hashtbl.find_opt def_block r with
          | Some db ->
              if not (Dom.dominates dom db user_bid) then
                err "%s: use of %%%d not dominated by its definition (L%d)"
                  (Lazy.force where) r db
          | None -> ())
      | _ -> ()
    in
    let reachable = Cfg.reachable fn in
    List.iter
      (fun b ->
        if IntSet.mem b.bid reachable then begin
          (* position-sensitive check within a block: a use in the same block
             must come after the def; approximate with ordering scan *)
          let defined_here = Hashtbl.create 8 in
          List.iter
            (fun i ->
              let where =
                lazy (Printf.sprintf "L%d: %s" b.bid (Printer.string_of_inst i))
              in
              (match i with
              | Phi (_, _, incoming) ->
                  (* phi uses are checked against the incoming edge *)
                  List.iter
                    (fun (p, v) ->
                      match v with
                      | Reg r when not (IntSet.mem r param_regs) -> (
                          match Hashtbl.find_opt def_block r with
                          | Some db ->
                              if not (Dom.dominates dom db p) then
                                err
                                  "%s: phi incoming %%%d from L%d not \
                                   dominated by def (L%d)"
                                  (Lazy.force where) r p db
                          | None -> ())
                      | _ -> ())
                    incoming
              | _ ->
                  List.iter
                    (fun v ->
                      match v with
                      | Reg r when Hashtbl.mem def_block r
                                   && Hashtbl.find def_block r = b.bid
                                   && not (Hashtbl.mem defined_here r) ->
                          err "%s: use of %%%d before its definition"
                            (Lazy.force where) r
                      | _ -> check_use where b.bid v)
                    (uses_of_inst i));
              match def_of_inst i with
              | Some d -> Hashtbl.replace defined_here d ()
              | None -> ())
            b.insts;
          List.iter
            (fun v ->
              match v with
              | Reg r when Hashtbl.mem def_block r
                           && Hashtbl.find def_block r = b.bid
                           && not (Hashtbl.mem defined_here r) ->
                  err "L%d: terminator uses %%%d before definition" b.bid r
              | _ -> check_use (lazy (Printf.sprintf "L%d: term" b.bid)) b.bid v)
            (uses_of_term b.term)
        end)
      fn.blocks
  end;
  if !errs = [] then Ok () else Error (List.rev !errs)

let check_exn ?ssa ?memform fn =
  match check ?ssa ?memform fn with
  | Ok () -> ()
  | Error errs ->
      failwith
        (Printf.sprintf "IR verification failed for %s:\n%s\n%s" fn.fname
           (String.concat "\n" errs)
           (Printer.func_to_string fn))
