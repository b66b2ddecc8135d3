(** Precision metrics for the interval analysis — the measurable version of
    the paper's §2.1 claim: "For simple verification tools that employ
    coarse-grained abstractions … compiler transformations can increase
    their precision and allow them to prove more facts about a program."

    For a compiled module we count, over all reachable functions:
    - conditional branches whose condition the analysis decides statically;
    - address computations into stack/global arrays proven in bounds;
    - registers given a range strictly tighter than their type.

    Comparing these ratios across [-O0]/[-O3]/[-OVERIFY] is the
    "precision" experiment of the harness. *)

module Ir = Overify_ir.Ir

type counts = {
  branches : int;
  branches_decided : int;
  geps : int;            (** address computations with a known extent *)
  geps_proved : int;     (** … proven in bounds *)
  regs : int;
  regs_bounded : int;    (** range strictly tighter than the type allows *)
}

let zero =
  { branches = 0; branches_decided = 0; geps = 0; geps_proved = 0;
    regs = 0; regs_bounded = 0 }

let add a b =
  {
    branches = a.branches + b.branches;
    branches_decided = a.branches_decided + b.branches_decided;
    geps = a.geps + b.geps;
    geps_proved = a.geps_proved + b.geps_proved;
    regs = a.regs + b.regs;
    regs_bounded = a.regs_bounded + b.regs_bounded;
  }

let of_function (fn : Ir.func) : counts =
  let r = Analysis.analyze fn in
  (* extents of locally-allocated arrays *)
  let extents = Hashtbl.create 8 in
  Ir.iter_insts
    (fun _ i ->
      match i with
      | Ir.Alloca (d, ty, n) -> Hashtbl.replace extents d (Ir.size_of_ty ty * n)
      | _ -> ())
    fn;
  let typing = Overify_ir.Typing.of_func fn in
  let c = ref zero in
  let bump f = c := f !c in
  (* walk each block with the analysis' entry environment, checking every
     fact at the exact program point where it matters *)
  List.iter
    (fun (b : Ir.block) ->
      match Hashtbl.find_opt r.Analysis.block_in b.Ir.bid with
      | None -> ()  (* unreachable *)
      | Some env0 ->
          let env = ref env0 in
          List.iter
            (fun i ->
              (match i with
              | Ir.Gep (_, Ir.Reg base, scale, idx) when Hashtbl.mem extents base
                ->
                  let extent = Hashtbl.find extents base in
                  let limit = Int64.of_int (extent / max scale 1) in
                  bump (fun c -> { c with geps = c.geps + 1 });
                  (match Analysis.value_range !env idx with
                  | Interval.Range (lo, hi) when lo >= 0L && hi < limit ->
                      bump (fun c -> { c with geps_proved = c.geps_proved + 1 })
                  | _ -> ())
              | _ -> ());
              (match i with
              | Ir.Phi _ -> ()  (* already folded into block_in *)
              | i -> env := Analysis.transfer_inst ~deftbl:r.Analysis.deftbl !env i);
              match Ir.def_of_inst i with
              | Some d -> (
                  match Overify_ir.Typing.reg_ty typing d with
                  | (Ir.I1 | Ir.I8 | Ir.I16 | Ir.I32 | Ir.I64) as ty ->
                      bump (fun c -> { c with regs = c.regs + 1 });
                      let range = Analysis.lookup !env d in
                      let tyr = Interval.top_for_bits (Ir.bits_of_ty ty) in
                      if (not (Interval.is_bot range))
                         && Interval.leq range tyr
                         && not (Interval.equal range tyr)
                      then
                        bump (fun c ->
                            { c with regs_bounded = c.regs_bounded + 1 })
                  | _ -> ())
              | None -> ())
            b.Ir.insts;
          (match b.Ir.term with
          | Ir.Cbr (cond, t, e) when t <> e ->
              bump (fun c -> { c with branches = c.branches + 1 });
              (match Interval.singleton (Analysis.value_range !env cond) with
              | Some _ ->
                  bump (fun c ->
                      { c with branches_decided = c.branches_decided + 1 })
              | None -> ())
          | _ -> ()))
    fn.Ir.blocks;
  !c

(** Aggregate over the functions reachable from [main]. *)
let of_module (m : Ir.modul) : counts =
  List.fold_left
    (fun acc fn -> add acc (of_function fn))
    zero
    (Overify_ir.Callgraph.reachable m "main")

let ratio num den = if den = 0 then 1.0 else float_of_int num /. float_of_int den
