(** The symbolic-execution step function: KLEE-style per-path interpretation
    of the IR, forking at feasible branches.

    Feasibility uses a counterexample-model fast path: every state carries a
    concrete assignment satisfying its path condition; the branch side that
    assignment takes is feasible for free, so typically {e one} solver query
    is spent per symbolic branch. *)

module Ir = Overify_ir.Ir
module Bv = Overify_solver.Bv
module Solver = Overify_solver.Solver
module Obs = Overify_obs.Obs
module Fault = Overify_fault.Fault
module Summary = Overify_summary.Summary
module Counters = Obs.Counters
module IMap = State.IMap

type gctx = {
  modul : Ir.modul;
  block_tbls : (string, (int, Ir.block) Hashtbl.t) Hashtbl.t;
  globals : (string * int) list;   (** global name -> memory object *)
  input_vars : int array;          (** symbolic variable id per input byte *)
  solver : Solver.ctx;             (** this worker's private solver context *)
  counters : Counters.t;
      (** this worker's cost counters, shared with [solver]: the executor
          adds instructions, forks and summary call outcomes, the solver
          its query costs, the engine completed paths.  Every cost is
          counted here and only here. *)
  faults : Fault.t option;
      (** injected-fault schedule shared by all workers of a run; scheduled
          crash/kill faults tick per [step], alloc faults per [Alloca] *)
  mutable covered : (string * int, unit) Hashtbl.t;
      (** basic blocks reached on some path (KLEE-style coverage);
          mutable so the summary builder can swap in per-trace tables *)
  prof : Obs.Profile.t option;
      (** cost attribution per (function, block): a view of [counters],
          cut at the top of {!step} when the stepped state's site changes
          and in {!enter_block}, so attributed values sum to the whole-run
          totals.  [None] (the default) is the un-instrumented fast path:
          one branch per step and per block entry. *)
  glayout : Summary.layout;
      (** writable-global byte-cell layout (summary variable space) *)
  mutable summaries : (string, Summary.fsum) Hashtbl.t option;
      (** per-function summaries; [Some] iff the run has summaries on *)
  mutable building : bool;
      (** inside the summary builder: calls always inline, and branch
          conjuncts are recorded in [fork_conds] for flavoring *)
  mutable sym_deref : bool;
      (** a bounds check saw a symbolic offset — its bug message depends
          on the calling context, so the function under build is opaque *)
  mutable fork_conds : Bv.t list;
      (** while building: conjuncts added under the both-sides-feasible
          branch discipline (Cbr), as opposed to the always-constrain
          condition discipline; cleared by the builder before each step *)
  mutable span : Obs.Span.t option;
      (** this worker's span (request tracing): summary instantiations
          emit instant events under it, and the engine parents per-query
          solver spans on it.  [None] (the default) emits nothing. *)
}

(** Make [fn]'s [block] the profile's current site: the growth of
    [counters] since the last cut goes to the site that was current. *)
let cut gctx (fn : Ir.func) block =
  match gctx.prof with
  | Some p -> Obs.Profile.cut p gctx.counters ~fn:fn.Ir.fname ~block
  | None -> ()

type transition =
  | T_cont of State.t
  | T_exit of State.t * Bv.t option   (** normal return from main *)
  | T_bug of State.t * string
  | T_drop of State.t * string
      (** path abandoned for an engine limitation (e.g. a symbolic offset
          over a very large object); makes the exploration incomplete *)

(** The degradation kind of a [T_drop] reason: an exhausted allocation
    budget, or any other abandoned path. *)
let drop_kind reason =
  if String.starts_with ~prefix:"allocation" reason then "alloc_exhausted"
  else "path_dropped"

exception Symex_error of string

let err fmt = Printf.ksprintf (fun s -> raise (Symex_error s)) fmt

let block_tbl gctx (fn : Ir.func) =
  match Hashtbl.find_opt gctx.block_tbls fn.Ir.fname with
  | Some t -> t
  | None ->
      let t = Ir.block_tbl fn in
      Hashtbl.replace gctx.block_tbls fn.Ir.fname t;
      t

(* ---------------- feasibility ---------------- *)

type feas = Feasible of (int * int64) list | Infeasible

(** Is [path /\ c] satisfiable?  Fast path: the state's model. *)
let feasible gctx (st : State.t) (c : Bv.t) : feas =
  match c.Bv.node with
  | Bv.Const 1L -> Feasible st.State.model
  | Bv.Const 0L -> Infeasible
  | _ ->
      if State.model_eval st c then Feasible st.State.model
      else begin
        match Solver.check gctx.solver (c :: st.State.path) with
        | Solver.Sat m -> Feasible m
        | Solver.Unsat -> Infeasible
      end

let constrain (st : State.t) c model =
  { st with State.path = c :: st.State.path; model }

(* ---------------- value evaluation ---------------- *)

let eval_value gctx (st : State.t) (v : Ir.value) : Sval.t =
  match v with
  | Ir.Imm (x, Ir.Ptr) ->
      if x = 0L then Sval.null else err "non-null pointer constant"
  | Ir.Imm (x, ty) -> Sval.SInt (Bv.const (Ir.bits_of_ty ty) x)
  | Ir.Reg r -> State.get_reg st r
  | Ir.Glob g -> (
      match List.assoc_opt g gctx.globals with
      | Some obj -> Sval.SPtr (obj, Bv.const 64 0L)
      | None -> err "unknown global %s" g)

let as_int_exn what v =
  match Sval.as_int v with
  | Some t -> t
  | None -> err "%s: pointer where integer expected" what

let as_ptr_exn what v =
  match Sval.as_ptr v with
  | Some p -> p
  | None -> err "%s: integer where pointer expected" what

let encode_ptr obj (off : Bv.t) : Bv.t =
  match off.Bv.node with
  | Bv.Const c -> Bv.const 64 (Ir.encode_ptr obj (Int64.to_int c))
  | _ -> err "storing a pointer with symbolic offset"

let decode_raw raw : Sval.t =
  match (Ir.ptr_obj raw, Ir.ptr_off raw) with
  | (0, 0) -> Sval.null
  | (obj, off) -> Sval.SPtr (obj, Bv.const 64 (Int64.of_int off))

let decode_ptr (t : Bv.t) : Sval.t =
  match t.Bv.node with
  | Bv.Const raw -> decode_raw raw
  | _ -> err "loading a symbolic pointer"

(** A pointer loaded through a symbolic index is an ITE tree over constant
    raw encodings; enumerate the alternatives with their guards so the
    caller can fork (KLEE's pointer resolution). *)
let decode_ptr_alternatives (t : Bv.t) : (Bv.t * int64) list option =
  let alts = ref [] in
  let ok = ref true in
  let rec go (t : Bv.t) guard =
    if !ok && List.length !alts <= 64 then
      match t.Bv.node with
      | Bv.Const raw -> alts := (guard, raw) :: !alts
      | Bv.Ite (c, a, b) ->
          go a (Bv.and_ guard c);
          go b (Bv.and_ guard (Bv.not_ c))
      | _ -> ok := false
  in
  go t Bv.tt;
  if !ok && List.length !alts <= 64 then Some !alts else None

(* ---------------- block transfer ---------------- *)

(** Enter [target]; evaluates phis in parallel. *)
let enter_block gctx (st : State.t) target : State.t =
  let fr = State.top st in
  Hashtbl.replace gctx.covered (fr.State.fn.Ir.fname, target) ();
  let tbl = block_tbl gctx fr.State.fn in
  let blk =
    match Hashtbl.find_opt tbl target with
    | Some b -> b
    | None -> err "branch to missing block L%d" target
  in
  let prev = fr.State.cur_block in
  let phis, rest =
    let rec split acc = function
      | (Ir.Phi _ as p) :: tl -> split (p :: acc) tl
      | tl -> (List.rev acc, tl)
    in
    split [] blk.Ir.insts
  in
  let phi_vals =
    List.map
      (fun p ->
        match p with
        | Ir.Phi (d, _, incoming) -> (
            match List.assoc_opt prev incoming with
            | Some v -> (d, eval_value gctx st v)
            | None -> err "phi without entry for predecessor L%d" prev)
        | _ -> assert false)
      phis
  in
  (* phi evaluation belongs to the block being entered *)
  cut gctx fr.State.fn target;
  let c = gctx.counters in
  c.Counters.instructions <- c.Counters.instructions + List.length phis;
  let st = { st with State.steps = st.State.steps + List.length phis } in
  State.with_top
    (List.fold_left
       (fun st (d, v) -> State.set_reg st d v)
       st phi_vals)
    (fun fr ->
      { fr with State.cur_block = target; prev_block = prev; insts = rest })

(* ---------------- memory access with bug forking ---------------- *)

(** Produce transitions for an access at [SPtr (obj, off)] of [width] bytes:
    a possible out-of-bounds bug branch plus the in-bounds continuation
    (through [k]). *)
let with_bounds gctx (st : State.t) ~what ~obj ~(off : Bv.t) ~width
    (k : State.t -> transition list) : transition list =
  if obj = 0 then [ T_bug (st, "null pointer dereference") ]
  else
    match Memory.find st.State.mem obj with
    | None -> [ T_bug (st, "dangling object") ]
    | Some o ->
        if not o.Memory.live then [ T_bug (st, what ^ ": use after scope exit") ]
        else begin
          match off.Bv.node with
          | Bv.Const c ->
              let c64 = Int64.to_int c in
              if c64 < 0 || c64 + width > o.Memory.size then
                [ T_bug
                    ( st,
                      Printf.sprintf
                        "%s: out-of-bounds (%d bytes at %d of %d-byte object)"
                        what width c64 o.Memory.size ) ]
              else k st
          | _ ->
              (* the bug message below depends on whether the offset is
                 symbolic, which substitution can change — a function whose
                 build hits this arm cannot be summarized faithfully *)
              gctx.sym_deref <- true;
              let limit = Int64.of_int (o.Memory.size - width) in
              if limit < 0L then
                [ T_bug (st, what ^ ": access wider than object") ]
              else begin
                let in_b = Bv.cmp Bv.Ule off (Bv.const 64 limit) in
                let oob = Bv.not_ in_b in
                let bugs =
                  match feasible gctx st oob with
                  | Feasible m ->
                      [ T_bug
                          ( constrain st oob m,
                            what ^ ": out-of-bounds (symbolic offset)" ) ]
                  | Infeasible -> []
                in
                let conts =
                  match feasible gctx st in_b with
                  | Feasible m -> k (constrain st in_b m)
                  | Infeasible -> []
                in
                bugs @ conts
              end
        end

(* ---------------- intrinsic calls ---------------- *)

let input_byte gctx (st : State.t) (idx : Bv.t) : Bv.t =
  let n = Array.length gctx.input_vars in
  match idx.Bv.node with
  | Bv.Const c ->
      let i = Int64.to_int (Ir.to_signed 32 c) in
      if i >= 0 && i < n then Bv.zext 32 (Bv.var 8 gctx.input_vars.(i))
      else Bv.const 32 0L
  | _ ->
      let acc = ref (Bv.const 32 0L) in
      for i = n - 1 downto 0 do
        acc :=
          Bv.ite
            (Bv.cmp Bv.Eq idx (Bv.const 32 (Int64.of_int i)))
            (Bv.zext 32 (Bv.var 8 gctx.input_vars.(i)))
            !acc
      done;
      ignore st;
      !acc

(* ---------------- the step function ---------------- *)

let charge gctx st =
  let c = gctx.counters in
  c.Counters.instructions <- c.Counters.instructions + 1;
  { st with State.steps = st.State.steps + 1 }

(** A genuine fork (more than one feasible continuation). *)
let record_fork gctx =
  let c = gctx.counters in
  c.Counters.forks <- c.Counters.forks + 1

(** Execute one instruction or terminator of [st]. *)
(* Injected per-step faults.  [Worker_crash] raises a containable
   exception (the engine degrades just this path); [Kill] simulates the
   whole process dying — deliberately not contained anywhere, so only a
   checkpoint survives it. *)
let fault_tick gctx =
  match gctx.faults with
  | None -> ()
  | Some _ ->
      if Fault.fire gctx.faults Fault.Worker_crash then
        raise (Fault.Crash "injected worker-domain exception");
      if Fault.fire gctx.faults Fault.Kill then raise (Fault.Killed "injected kill")

let rec step gctx (st : State.t) : transition list =
  fault_tick gctx;
  let fr = State.top st in
  (* the step's costs, its queries included, belong to the stepped site *)
  cut gctx fr.State.fn fr.State.cur_block;
  match fr.State.insts with
  | inst :: rest -> (
      let st = charge gctx st in
      let st = State.with_top st (fun fr -> { fr with State.insts = rest }) in
      let ev v = eval_value gctx st v in
      match inst with
      | Ir.Bin (d, op, ty, a, b) -> (
          let w = Ir.bits_of_ty ty in
          let ta = as_int_exn "binop" (ev a) and tb = as_int_exn "binop" (ev b) in
          assert (ta.Bv.width = w && tb.Bv.width = w);
          match op with
          | Ir.Sdiv | Ir.Udiv | Ir.Srem | Ir.Urem -> (
              let zero = Bv.const w 0L in
              let is_zero = Bv.cmp Bv.Eq tb zero in
              match is_zero.Bv.node with
              | Bv.Const 0L ->
                  [ T_cont (State.set_reg st d (Sval.SInt (Bv.binop op ta tb))) ]
              | Bv.Const 1L -> [ T_bug (st, "division by zero") ]
              | _ ->
                  let bugs =
                    match feasible gctx st is_zero with
                    | Feasible m ->
                        [ T_bug (constrain st is_zero m, "division by zero") ]
                    | Infeasible -> []
                  in
                  let nz = Bv.not_ is_zero in
                  let conts =
                    match feasible gctx st nz with
                    | Feasible m ->
                        let st = constrain st nz m in
                        [ T_cont
                            (State.set_reg st d
                               (Sval.SInt (Bv.binop op ta tb))) ]
                    | Infeasible -> []
                  in
                  bugs @ conts)
          | _ ->
              [ T_cont (State.set_reg st d (Sval.SInt (Bv.binop op ta tb))) ])
      | Ir.Cmp (d, op, ty, a, b) ->
          let res =
            if ty = Ir.Ptr then begin
              let (o1, off1) = as_ptr_exn "cmp" (ev a) in
              let (o2, off2) = as_ptr_exn "cmp" (ev b) in
              if o1 = o2 then Bv.cmp op off1 off2
              else
                match op with
                | Ir.Eq -> Bv.ff
                | Ir.Ne -> Bv.tt
                | _ -> err "ordered comparison of unrelated pointers"
            end
            else
              Bv.cmp op
                (as_int_exn "cmp" (ev a))
                (as_int_exn "cmp" (ev b))
          in
          [ T_cont (State.set_reg st d (Sval.SInt res)) ]
      | Ir.Select (d, _ty, c, a, b) -> (
          let tc = as_int_exn "select" (ev c) in
          let va = ev a and vb = ev b in
          match (tc.Bv.node, va, vb) with
          | (Bv.Const 1L, _, _) -> [ T_cont (State.set_reg st d va) ]
          | (Bv.Const 0L, _, _) -> [ T_cont (State.set_reg st d vb) ]
          | (_, Sval.SInt ta, Sval.SInt tb) ->
              [ T_cont (State.set_reg st d (Sval.SInt (Bv.ite tc ta tb))) ]
          | (_, Sval.SPtr (o1, off1), Sval.SPtr (o2, off2)) when o1 = o2 ->
              [ T_cont (State.set_reg st d (Sval.SPtr (o1, Bv.ite tc off1 off2))) ]
          | (_, _, _) ->
              (* select over distinct objects: fork on the condition *)
              record_fork gctx;
              let tside =
                match feasible gctx st tc with
                | Feasible m ->
                    [ T_cont (State.set_reg (constrain st tc m) d va) ]
                | Infeasible -> []
              in
              let nc = Bv.not_ tc in
              let fside =
                match feasible gctx st nc with
                | Feasible m ->
                    [ T_cont (State.set_reg (constrain st nc m) d vb) ]
                | Infeasible -> []
              in
              tside @ fside)
      | Ir.Cast (d, op, to_ty, v, from_ty) ->
          let t = as_int_exn "cast" (ev v) in
          let wf = Ir.bits_of_ty from_ty and wt = Ir.bits_of_ty to_ty in
          assert (t.Bv.width = wf);
          let res =
            match op with
            | Ir.Zext -> Bv.zext wt t
            | Ir.Sext -> Bv.sext wt t
            | Ir.Trunc -> Bv.trunc wt t
          in
          [ T_cont (State.set_reg st d (Sval.SInt res)) ]
      | Ir.Alloca (d, ty, n) when Fault.fire gctx.faults Fault.Alloc_fail ->
          ignore (d, ty, n);
          [ T_drop (st, "allocation budget exhausted (injected)") ]
      | Ir.Alloca (d, ty, n) ->
          let (mem, obj) = Memory.alloc st.State.mem ~size:(Ir.size_of_ty ty * n) in
          let st = { st with State.mem = mem } in
          let st =
            State.with_top st (fun fr ->
                { fr with State.frame_objs = obj :: fr.State.frame_objs })
          in
          [ T_cont (State.set_reg st d (Sval.SPtr (obj, Bv.const 64 0L))) ]
      | Ir.Load (d, ty, p) ->
          let (obj, off) = as_ptr_exn "load" (ev p) in
          let width = Ir.size_of_ty ty in
          with_bounds gctx st ~what:"load" ~obj ~off ~width (fun st ->
              match Memory.read st.State.mem ~obj ~off ~width with
              | Ok t when ty <> Ir.Ptr ->
                  let v = Bv.trunc (Ir.bits_of_ty ty) (pad_to_width t width) in
                  [ T_cont (State.set_reg st d (Sval.SInt v)) ]
              | Ok t -> (
                  (* pointer load: a symbolic result is an ITE over constant
                     raw encodings — fork per feasible alternative *)
                  match t.Bv.node with
                  | Bv.Const raw -> [ T_cont (State.set_reg st d (decode_raw raw)) ]
                  | _ -> (
                      match decode_ptr_alternatives t with
                      | None -> [ T_drop (st, "unsupported symbolic pointer") ]
                      | Some alts ->
                          if List.length alts > 1 then
                            record_fork gctx;
                          List.concat_map
                            (fun (guard, raw) ->
                              match feasible gctx st guard with
                              | Feasible m ->
                                  [ T_cont
                                      (State.set_reg (constrain st guard m) d
                                         (decode_raw raw)) ]
                              | Infeasible -> [])
                            alts))
              | Error Memory.Too_wide_ite ->
                  [ T_drop (st, "symbolic offset over too-large object") ]
              | Error e -> [ T_bug (st, Memory.string_of_error e) ])
      | Ir.Store (ty, v, p) ->
          let (obj, off) = as_ptr_exn "store" (ev p) in
          let width = Ir.size_of_ty ty in
          let tv =
            if ty = Ir.Ptr then
              match ev v with
              | Sval.SPtr (o, po) -> encode_ptr o po
              | Sval.SInt t when t.Bv.node = Bv.Const 0L -> Bv.const 64 0L
              | Sval.SInt _ -> err "storing integer as pointer"
            else Bv.zext (8 * width) (as_int_exn "store" (ev v))
          in
          with_bounds gctx st ~what:"store" ~obj ~off ~width (fun st ->
              match Memory.write st.State.mem ~obj ~off ~width ~v:tv with
              | Ok mem -> [ T_cont { st with State.mem = mem } ]
              | Error Memory.Too_wide_ite ->
                  [ T_drop (st, "symbolic offset over too-large object") ]
              | Error e -> [ T_bug (st, Memory.string_of_error e) ])
      | Ir.Gep (d, base, scale, idx) ->
          let (obj, off) = as_ptr_exn "gep" (ev base) in
          let ti = as_int_exn "gep" (ev idx) in
          let ti64 = if ti.Bv.width = 64 then ti else Bv.sext 64 ti in
          let off' =
            Bv.binop Bv.Add off
              (Bv.binop Bv.Mul ti64 (Bv.const 64 (Int64.of_int scale)))
          in
          [ T_cont (State.set_reg st d (Sval.SPtr (obj, off'))) ]
      | Ir.Call (d, _ty, name, args) -> exec_call gctx st d name (List.map ev args)
      | Ir.Phi _ -> err "phi in the middle of a block")
  | [] -> (
      (* terminator *)
      let st = charge gctx st in
      let blk =
        Hashtbl.find (block_tbl gctx fr.State.fn) fr.State.cur_block
      in
      match blk.Ir.term with
      | Ir.Br l -> [ T_cont (enter_block gctx st l) ]
      | Ir.Cbr (c, t, e) -> (
          let tc = as_int_exn "cbr" (eval_value gctx st c) in
          match tc.Bv.node with
          | Bv.Const 1L -> [ T_cont (enter_block gctx st t) ]
          | Bv.Const 0L -> [ T_cont (enter_block gctx st e) ]
          | _ ->
              let nc = Bv.not_ tc in
              let tf = feasible gctx st tc and ff_ = feasible gctx st nc in
              (match (tf, ff_) with
              | (Feasible mt, Feasible mf) ->
                  record_fork gctx;
                  if gctx.building then
                    gctx.fork_conds <- nc :: tc :: gctx.fork_conds;
                  [ T_cont (enter_block gctx (constrain st tc mt) t);
                    T_cont (enter_block gctx (constrain st nc mf) e) ]
              | (Feasible _, Infeasible) -> [ T_cont (enter_block gctx st t) ]
              | (Infeasible, Feasible _) -> [ T_cont (enter_block gctx st e) ]
              | (Infeasible, Infeasible) ->
                  (* the path condition itself became unsatisfiable *)
                  []))
      | Ir.Ret v -> (
          let rv = Option.map (eval_value gctx st) v in
          (* free this frame's allocas *)
          let mem =
            List.fold_left Memory.kill st.State.mem (State.top st).State.frame_objs
          in
          let st = { st with State.mem = mem } in
          match st.State.frames with
          | [ _ ] ->
              let code = match rv with Some (Sval.SInt t) -> Some t | _ -> None in
              [ T_exit (st, code) ]
          | frame :: caller :: rest ->
              let st = { st with State.frames = caller :: rest } in
              let st =
                match (frame.State.ret_dst, rv) with
                | (Some d, Some v) -> State.set_reg st d v
                | (Some d, None) ->
                    State.set_reg st d (Sval.SInt (Bv.const 32 0L))
                | (None, _) -> st
              in
              [ T_cont st ]
          | [] -> err "return with no frame")
      | Ir.Unreachable -> [ T_bug (st, "reached unreachable code") ])

and pad_to_width (t : Bv.t) width =
  if t.Bv.width = 8 * width then t else Bv.zext (8 * width) t

and exec_call gctx (st : State.t) dst name (args : Sval.t list) :
    transition list =
  let set v = match dst with Some d -> State.set_reg st d v | None -> st in
  match name with
  | "__input" ->
      let idx = as_int_exn "__input" (List.nth args 0) in
      [ T_cont (set (Sval.SInt (input_byte gctx st idx))) ]
  | "__input_size" ->
      [ T_cont
          (set (Sval.SInt (Bv.const 32 (Int64.of_int (Array.length gctx.input_vars))))) ]
  | "__output" ->
      let c = as_int_exn "__output" (List.nth args 0) in
      [ T_cont { st with State.out_rev = Bv.trunc 8 c :: st.State.out_rev } ]
  | "__abort" -> [ T_bug (st, "abort called") ]
  | "__assert" -> (
      let c = as_int_exn "__assert" (List.nth args 0) in
      let fail = Bv.cmp Bv.Eq c (Bv.const c.Bv.width 0L) in
      match fail.Bv.node with
      | Bv.Const 1L -> [ T_bug (st, "assertion failure") ]
      | Bv.Const 0L -> [ T_cont st ]
      | _ ->
          let bugs =
            match feasible gctx st fail with
            | Feasible m -> [ T_bug (constrain st fail m, "assertion failure") ]
            | Infeasible -> []
          in
          let ok = Bv.not_ fail in
          let conts =
            match feasible gctx st ok with
            | Feasible m -> [ T_cont (constrain st ok m) ]
            | Infeasible -> []
          in
          bugs @ conts)
  | _ -> (
      match Ir.find_func gctx.modul name with
      | None -> err "call to unknown function %s" name
      | Some fn -> (
          let params = fn.Ir.params in
          if List.length params <> List.length args then
            err "arity mismatch calling %s" name;
          let inline () =
            let regs =
              List.fold_left2
                (fun m (r, _) v -> IMap.add r v m)
                IMap.empty params args
            in
            let entry = Ir.entry fn in
            Hashtbl.replace gctx.covered (fn.Ir.fname, entry.Ir.bid) ();
            let frame =
              {
                State.fn;
                regs;
                cur_block = entry.Ir.bid;
                prev_block = -1;
                insts = entry.Ir.insts;
                ret_dst = dst;
                frame_objs = [];
              }
            in
            [ T_cont { st with State.frames = frame :: st.State.frames } ]
          in
          (* the builder always inlines: nested branch conjuncts must flow
             through the real Cbr discipline to be flavored correctly *)
          match gctx.summaries with
          | Some tbl when not gctx.building -> (
              match Hashtbl.find_opt tbl name with
              | Some (Summary.Summarized traces) ->
                  let c = gctx.counters in
                  c.Counters.summary_instantiated <-
                    c.Counters.summary_instantiated + 1;
                  (match gctx.span with
                  | Some parent ->
                      Obs.Span.event ~parent
                        ~args:[ ("fn", fn.Ir.fname) ]
                        "summary.instantiate"
                  | None -> ());
                  Hashtbl.replace gctx.covered
                    (fn.Ir.fname, (Ir.entry fn).Ir.bid) ();
                  apply_summary gctx st dst fn traces
                    (Array.of_list
                       (List.map (as_int_exn "summary arg") args))
              | Some (Summary.Opaque _) ->
                  let c = gctx.counters in
                  c.Counters.summary_opaque <- c.Counters.summary_opaque + 1;
                  inline ()
              | None -> inline ())
          | _ -> inline ()))

(** Instantiate a summary at a call site: substitute the actual argument
    terms and the caller's current global cell contents into each trace,
    re-constrain its conjuncts in order, and turn the survivors into
    transitions.  The replay rules reproduce inline exploration exactly
    (see summary.mli): condition conjuncts constrain whenever feasible;
    branch conjuncts additionally check the negation and, when the branch
    is one-sided, continue without the conjunct and without adopting a
    new model — which is precisely what the Cbr code above does. *)
and apply_summary gctx (st : State.t) dst (fn : Ir.func)
    (traces : Summary.trace list) (args : Bv.t array) : transition list =
  let memo = Hashtbl.create 64 in
  let lookup v =
    if v >= Summary.global_cell_base then
      match Summary.cell_of_var gctx.glayout v with
      | Some (gname, off) -> (
          match List.assoc_opt gname gctx.globals with
          | Some obj -> (
              match Memory.find st.State.mem obj with
              | Some o -> o.Memory.cells.(off)
              | None -> err "summary: global %s has no object" gname)
          | None -> err "summary: unknown global %s" gname)
      | None -> err "summary: cell variable %d outside layout" v
    else begin
      let i = v - Summary.param_base in
      if i >= 0 && i < Array.length args then args.(i)
      else err "summary: parameter variable %d out of range" v
    end
  in
  let sub t = Summary.subst ~memo ~lookup t in
  (* all traces replay against the state at the call, so one memo serves
     the whole instantiation *)
  let rec replay st (conjs : Summary.conjunct list) : State.t option =
    match conjs with
    | [] -> Some st
    | { Summary.c_fork; c_term } :: rest -> (
        let c = sub c_term in
        match c.Bv.node with
        | Bv.Const 1L -> replay st rest (* inline's constant fast path *)
        | Bv.Const 0L -> None
        | _ ->
            if not c_fork then (
              match feasible gctx st c with
              | Infeasible -> None
              | Feasible m -> replay (constrain st c m) rest)
            else (
              match feasible gctx st c with
              | Infeasible -> None
              | Feasible m -> (
                  match feasible gctx st (Bv.not_ c) with
                  | Infeasible ->
                      (* one-sided branch: inline would not constrain and
                         would keep the old model *)
                      replay st rest
                  | Feasible _ ->
                      if gctx.building then
                        gctx.fork_conds <- c :: gctx.fork_conds;
                      replay (constrain st c m) rest)))
  in
  let finish (st : State.t) (tr : Summary.trace) : transition =
    List.iter (fun k -> Hashtbl.replace gctx.covered k ()) tr.Summary.t_covered;
    match tr.Summary.t_outcome with
    | Summary.O_bug { bg_kind; bg_fn; bg_block } ->
        (* push a synthetic frame so bug attribution (function name at the
           top of the stack) matches the inline exploration *)
        let bfn =
          match Ir.find_func gctx.modul bg_fn with Some f -> f | None -> fn
        in
        let frame =
          {
            State.fn = bfn;
            regs = IMap.empty;
            cur_block = bg_block;
            prev_block = -1;
            insts = [];
            ret_dst = None;
            frame_objs = [];
          }
        in
        T_bug ({ st with State.frames = frame :: st.State.frames }, bg_kind)
    | Summary.O_ret rv ->
        let mem =
          List.fold_left
            (fun mem (gname, off, v8) ->
              match List.assoc_opt gname gctx.globals with
              | Some obj -> (
                  match
                    Memory.write mem ~obj
                      ~off:(Bv.const 64 (Int64.of_int off))
                      ~width:1 ~v:(sub v8)
                  with
                  | Ok mem' -> mem'
                  | Error _ -> err "summary: global write to %s failed" gname)
              | None -> err "summary: unknown global %s" gname)
            st.State.mem tr.Summary.t_writes
        in
        let st = { st with State.mem = mem } in
        let st =
          match (dst, rv) with
          | (Some d, Some t) -> State.set_reg st d (Sval.SInt (sub t))
          | (Some d, None) -> State.set_reg st d (Sval.SInt (Bv.const 32 0L))
          | (None, _) -> st
        in
        T_cont st
  in
  List.filter_map
    (fun (tr : Summary.trace) ->
      Option.map
        (fun st' -> finish st' tr)
        (replay st tr.Summary.t_conjuncts))
    traces
