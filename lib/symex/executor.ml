(** The symbolic-execution step function: KLEE-style per-path interpretation
    of the IR, forking at feasible branches.

    Every state carries its path condition as a {!Solver.Pc.t}: the
    conjuncts, kept partitioned into variable-disjoint components, and a
    model satisfying them.  {!Solver.assume} is the executor's only solver
    call.  The branch side the model takes is feasible for free, so
    typically {e one} query is spent per symbolic branch, and that query
    answers only the components that changed since the state's last one.
    A frame keeps its block's terminator, so stepping one looks nothing
    up. *)

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
  | T_exit of State.t * Sval.t option
      (** normal return from main, with the [Con]/[Sym] integer it
          returned ([None]: no value, or a pointer) *)
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

(** [st] constrained by [c], or [None] when its path condition and [c]
    are unsatisfiable together. *)
let assume gctx (st : State.t) (c : Bv.t) : State.t option =
  Option.map
    (fun pc -> { st with State.pc })
    (Solver.assume gctx.solver st.State.pc c)

(* ---------------- value evaluation ---------------- *)

let eval_value gctx (st : State.t) (v : Ir.value) : Sval.t =
  match v with
  | Ir.Imm (x, Ir.Ptr) ->
      if x = 0L then Sval.null else err "non-null pointer constant"
  | Ir.Imm (x, ty) -> Sval.Con (Ir.bits_of_ty ty, Ir.norm ty x)
  | Ir.Reg r -> State.get_reg st r
  | Ir.Glob g -> (
      match List.assoc_opt g gctx.globals with
      | Some obj -> Sval.Ptr (obj, 0)
      | None -> err "unknown global %s" g)

(* the integer view: null reads as 0 *)
let as_int_exn what = function
  | (Sval.Con _ | Sval.Sym _) as v -> v
  | Sval.Ptr (0, 0) -> Sval.Con (64, 0L)
  | Sval.Ptr _ | Sval.Sym_ptr _ -> err "%s: pointer where integer expected" what

(* the pointer view: the integer 0 reads as null *)
let as_ptr_exn what = function
  | (Sval.Ptr _ | Sval.Sym_ptr _) as p -> p
  | Sval.Con (_, 0L) -> Sval.null
  | Sval.Con _ | Sval.Sym _ -> err "%s: integer where pointer expected" what

(* the 64-bit word a pointer is stored as *)
let encode_ptr = function
  | Sval.Ptr (obj, off) -> Sval.Con (64, Ir.encode_ptr obj off)
  | Sval.Con (_, 0L) -> Sval.Con (64, 0L)
  | Sval.Sym_ptr _ -> err "storing a pointer with symbolic offset"
  | Sval.Con _ | Sval.Sym _ -> err "storing integer as pointer"

let decode_raw raw : Sval.t = Sval.Ptr (Ir.ptr_obj raw, Ir.ptr_off raw)

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
  State.with_top
    (List.fold_left
       (fun st (d, v) -> State.set_reg st d v)
       st phi_vals)
    (fun fr ->
      { fr with
        State.cur_block = target;
        prev_block = prev;
        insts = rest;
        term = blk.Ir.term })

(* ---------------- memory access with bug forking ---------------- *)

(** Produce transitions for an access at pointer [p] of [width] bytes:
    a possible out-of-bounds bug branch plus the in-bounds continuation
    (through [k]). *)
let with_bounds gctx (st : State.t) ~what (p : Sval.t) ~width
    (k : State.t -> transition list) : transition list =
  let obj = Sval.obj p in
  if obj = 0 then [ T_bug (st, "null pointer dereference") ]
  else
    match Memory.find st.State.mem obj with
    | None -> [ T_bug (st, "dangling object") ]
    | Some o ->
        if not o.Memory.live then [ T_bug (st, what ^ ": use after scope exit") ]
        else begin
          match p with
          | Sval.Ptr (_, c) ->
              if c < 0 || c + width > o.Memory.size then
                [ T_bug
                    ( st,
                      Printf.sprintf
                        "%s: out-of-bounds (%d bytes at %d of %d-byte object)"
                        what width c o.Memory.size ) ]
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
                let in_b =
                  Bv.cmp Bv.Ule (Sval.off_term p) (Bv.const 64 limit)
                in
                let oob = Bv.not_ in_b in
                let bugs =
                  match assume gctx st oob with
                  | Some st ->
                      [ T_bug (st, what ^ ": out-of-bounds (symbolic offset)") ]
                  | None -> []
                in
                let conts =
                  match assume gctx st in_b with Some st -> k st | None -> []
                in
                bugs @ conts
              end
        end

(* ---------------- intrinsic calls ---------------- *)

let input_byte gctx (idx : Sval.t) : Sval.t =
  let n = Array.length gctx.input_vars in
  match idx with
  | Sval.Con (_, c) ->
      let i = Int64.to_int (Ir.to_signed 32 c) in
      if i >= 0 && i < n then
        Sval.of_term (Bv.zext 32 (Bv.var 8 gctx.input_vars.(i)))
      else Sval.Con (32, 0L)
  | _ ->
      let idx = Sval.term idx in
      let acc = ref (Bv.const 32 0L) in
      for i = n - 1 downto 0 do
        acc :=
          Bv.ite
            (Bv.cmp Bv.Eq idx (Bv.const 32 (Int64.of_int i)))
            (Bv.zext 32 (Bv.var 8 gctx.input_vars.(i)))
            !acc
      done;
      Sval.of_term !acc

(* ---------------- the step function ---------------- *)

let charge gctx =
  let c = gctx.counters in
  c.Counters.instructions <- c.Counters.instructions + 1

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
      charge gctx;
      let st = State.with_top st (fun fr -> { fr with State.insts = rest }) in
      let ev v = eval_value gctx st v in
      match inst with
      | Ir.Bin (d, op, ty, a, b) -> (
          let w = Ir.bits_of_ty ty in
          let a = as_int_exn "binop" (ev a) and b = as_int_exn "binop" (ev b) in
          assert (Sval.width a = w && Sval.width b = w);
          match op with
          | Ir.Sdiv | Ir.Udiv | Ir.Srem | Ir.Urem -> (
              match Sval.cmp Bv.Eq b (Sval.Con (w, 0L)) with
              | Sval.Con (_, 0L) ->
                  [ T_cont (State.set_reg st d (Sval.binop op a b)) ]
              | Sval.Con _ -> [ T_bug (st, "division by zero") ]
              | is_zero ->
                  let is_zero = Sval.term is_zero in
                  let bugs =
                    match assume gctx st is_zero with
                    | Some st -> [ T_bug (st, "division by zero") ]
                    | None -> []
                  in
                  let conts =
                    match assume gctx st (Bv.not_ is_zero) with
                    | Some st ->
                        [ T_cont (State.set_reg st d (Sval.binop op a b)) ]
                    | None -> []
                  in
                  bugs @ conts)
          | _ -> [ T_cont (State.set_reg st d (Sval.binop op a b)) ])
      | Ir.Cmp (d, op, ty, a, b) ->
          let res =
            if ty = Ir.Ptr then begin
              let p1 = as_ptr_exn "cmp" (ev a)
              and p2 = as_ptr_exn "cmp" (ev b) in
              if Sval.obj p1 = Sval.obj p2 then
                match (p1, p2) with
                | (Sval.Ptr (_, x), Sval.Ptr (_, y)) ->
                    Sval.cmp op
                      (Sval.Con (64, Int64.of_int x))
                      (Sval.Con (64, Int64.of_int y))
                | _ ->
                    Sval.of_term
                      (Bv.cmp op (Sval.off_term p1) (Sval.off_term p2))
              else
                match op with
                | Ir.Eq -> Sval.Con (1, 0L)
                | Ir.Ne -> Sval.Con (1, 1L)
                | _ -> err "ordered comparison of unrelated pointers"
            end
            else Sval.cmp op (as_int_exn "cmp" (ev a)) (as_int_exn "cmp" (ev b))
          in
          [ T_cont (State.set_reg st d res) ]
      | Ir.Select (d, _ty, c, a, b) -> (
          let c = as_int_exn "select" (ev c) in
          let va = ev a and vb = ev b in
          match (c, va, vb) with
          | (Sval.Con (_, 1L), _, _) -> [ T_cont (State.set_reg st d va) ]
          | (Sval.Con (_, 0L), _, _) -> [ T_cont (State.set_reg st d vb) ]
          | (_, (Sval.Con _ | Sval.Sym _), (Sval.Con _ | Sval.Sym _)) ->
              let v = Bv.ite (Sval.term c) (Sval.term va) (Sval.term vb) in
              [ T_cont (State.set_reg st d (Sval.of_term v)) ]
          | (_, (Sval.Ptr _ | Sval.Sym_ptr _), (Sval.Ptr _ | Sval.Sym_ptr _))
            when Sval.obj va = Sval.obj vb ->
              let off =
                Bv.ite (Sval.term c) (Sval.off_term va) (Sval.off_term vb)
              in
              let p = Sval.ptr_of_term (Sval.obj va) off in
              [ T_cont (State.set_reg st d p) ]
          | (_, _, _) ->
              (* select over distinct objects: fork on the condition *)
              record_fork gctx;
              let tc = Sval.term c in
              let tside =
                match assume gctx st tc with
                | Some st -> [ T_cont (State.set_reg st d va) ]
                | None -> []
              in
              let fside =
                match assume gctx st (Bv.not_ tc) with
                | Some st -> [ T_cont (State.set_reg st d vb) ]
                | None -> []
              in
              tside @ fside)
      | Ir.Cast (d, op, to_ty, v, from_ty) ->
          let v = as_int_exn "cast" (ev v) in
          assert (Sval.width v = Ir.bits_of_ty from_ty);
          [ T_cont (State.set_reg st d (Sval.cast op ~to_ty ~from_ty v)) ]
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
          [ T_cont (State.set_reg st d (Sval.Ptr (obj, 0))) ]
      | Ir.Load (d, ty, p) ->
          let p = as_ptr_exn "load" (ev p) in
          let width = Ir.size_of_ty ty in
          with_bounds gctx st ~what:"load" p ~width (fun st ->
              match Memory.read st.State.mem p ~width with
              | Ok v when ty <> Ir.Ptr ->
                  (* an i1 occupies a byte *)
                  let v =
                    if ty = Ir.I1 then
                      Sval.cast Ir.Trunc ~to_ty:Ir.I1 ~from_ty:Ir.I8 v
                    else v
                  in
                  [ T_cont (State.set_reg st d v) ]
              | Ok (Sval.Con (_, raw)) ->
                  [ T_cont (State.set_reg st d (decode_raw raw)) ]
              | Ok v -> (
                  (* pointer load: a symbolic result is an ITE over constant
                     raw encodings — fork per feasible alternative *)
                  match decode_ptr_alternatives (Sval.term v) with
                  | None -> [ T_drop (st, "unsupported symbolic pointer") ]
                  | Some alts ->
                      if List.length alts > 1 then
                        record_fork gctx;
                      List.concat_map
                        (fun (guard, raw) ->
                          match assume gctx st guard with
                          | Some st ->
                              [ T_cont (State.set_reg st d (decode_raw raw)) ]
                          | None -> [])
                        alts)
              | Error Memory.Too_wide_ite ->
                  [ T_drop (st, "symbolic offset over too-large object") ]
              | Error e -> [ T_bug (st, Memory.string_of_error e) ])
      | Ir.Store (ty, v, p) ->
          let p = as_ptr_exn "store" (ev p) in
          let width = Ir.size_of_ty ty in
          let v =
            if ty = Ir.Ptr then encode_ptr (ev v) else as_int_exn "store" (ev v)
          in
          with_bounds gctx st ~what:"store" p ~width (fun st ->
              match Memory.write st.State.mem p ~width ~v with
              | Ok mem -> [ T_cont { st with State.mem = mem } ]
              | Error Memory.Too_wide_ite ->
                  [ T_drop (st, "symbolic offset over too-large object") ]
              | Error e -> [ T_bug (st, Memory.string_of_error e) ])
      | Ir.Gep (d, base, scale, idx) ->
          let p = as_ptr_exn "gep" (ev base) in
          let i = as_int_exn "gep" (ev idx) in
          let p' =
            match (p, i) with
            | (Sval.Ptr (obj, off), Sval.Con (w, x)) ->
                (* native arithmetic is the 64-bit offset modulo 2^63 *)
                Sval.Ptr (obj, off + (Int64.to_int (Ir.to_signed w x) * scale))
            | _ ->
                let ti = Sval.term i in
                let ti64 = if ti.Bv.width = 64 then ti else Bv.sext 64 ti in
                Sval.ptr_of_term (Sval.obj p)
                  (Bv.binop Bv.Add (Sval.off_term p)
                     (Bv.binop Bv.Mul ti64 (Bv.const 64 (Int64.of_int scale))))
          in
          [ T_cont (State.set_reg st d p') ]
      | Ir.Call (d, _ty, name, args) -> exec_call gctx st d name (List.map ev args)
      | Ir.Phi _ -> err "phi in the middle of a block")
  | [] -> (
      (* terminator *)
      charge gctx;
      match fr.State.term with
      | Ir.Br l -> [ T_cont (enter_block gctx st l) ]
      | Ir.Cbr (c, t, e) -> (
          match as_int_exn "cbr" (eval_value gctx st c) with
          | Sval.Con (_, 1L) -> [ T_cont (enter_block gctx st t) ]
          | Sval.Con (_, 0L) -> [ T_cont (enter_block gctx st e) ]
          | c ->
              let tc = Sval.term c in
              let nc = Bv.not_ tc in
              let st_t = assume gctx st tc in
              let st_e = assume gctx st nc in
              (match (st_t, st_e) with
              | (Some st_t, Some st_e) ->
                  record_fork gctx;
                  if gctx.building then
                    gctx.fork_conds <- nc :: tc :: gctx.fork_conds;
                  [ T_cont (enter_block gctx st_t t);
                    T_cont (enter_block gctx st_e e) ]
              | (Some _, None) -> [ T_cont (enter_block gctx st t) ]
              | (None, Some _) -> [ T_cont (enter_block gctx st e) ]
              | (None, None) ->
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
              let code =
                match rv with
                | Some ((Sval.Con _ | Sval.Sym _) as c) -> Some c
                | Some (Sval.Ptr _ | Sval.Sym_ptr _) | None -> None
              in
              [ T_exit (st, code) ]
          | frame :: caller :: rest ->
              let st = { st with State.frames = caller :: rest } in
              let st =
                match (frame.State.ret_dst, rv) with
                | (Some d, Some v) -> State.set_reg st d v
                | (Some d, None) -> State.set_reg st d (Sval.Con (32, 0L))
                | (None, _) -> st
              in
              [ T_cont st ]
          | [] -> err "return with no frame")
      | Ir.Unreachable -> [ T_bug (st, "reached unreachable code") ])

and exec_call gctx (st : State.t) dst name (args : Sval.t list) :
    transition list =
  let set v = match dst with Some d -> State.set_reg st d v | None -> st in
  match name with
  | "__input" ->
      let idx = as_int_exn "__input" (List.nth args 0) in
      [ T_cont (set (input_byte gctx idx)) ]
  | "__input_size" ->
      [ T_cont
          (set (Sval.Con (32, Int64.of_int (Array.length gctx.input_vars)))) ]
  | "__output" ->
      ignore (as_int_exn "__output" (List.nth args 0));
      [ T_cont st ]
  | "__abort" -> [ T_bug (st, "abort called") ]
  | "__assert" -> (
      let c = as_int_exn "__assert" (List.nth args 0) in
      match Sval.cmp Bv.Eq c (Sval.Con (Sval.width c, 0L)) with
      | Sval.Con (_, 1L) -> [ T_bug (st, "assertion failure") ]
      | Sval.Con _ -> [ T_cont st ]
      | fail ->
          let fail = Sval.term fail in
          let bugs =
            match assume gctx st fail with
            | Some st -> [ T_bug (st, "assertion failure") ]
            | None -> []
          in
          let conts =
            match assume gctx st (Bv.not_ fail) with
            | Some st -> [ T_cont st ]
            | None -> []
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
                term = entry.Ir.term;
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
                       (List.map
                          (fun a -> Sval.term (as_int_exn "summary arg" a))
                          args))
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
              | Some o -> Sval.term o.Memory.cells.(off)
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
              match assume gctx st c with
              | None -> None
              | Some st -> replay st rest)
            else (
              match assume gctx st c with
              | None -> None
              | Some st_c -> (
                  match assume gctx st (Bv.not_ c) with
                  | None ->
                      (* one-sided branch: inline would not constrain and
                         would keep the old path condition *)
                      replay st rest
                  | Some _ ->
                      if gctx.building then
                        gctx.fork_conds <- c :: gctx.fork_conds;
                      replay st_c rest)))
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
        let term =
          match Hashtbl.find_opt (block_tbl gctx bfn) bg_block with
          | Some b -> b.Ir.term
          | None -> Ir.Unreachable
        in
        let frame =
          {
            State.fn = bfn;
            regs = IMap.empty;
            cur_block = bg_block;
            prev_block = -1;
            insts = [];
            term;
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
                    Memory.write mem (Sval.Ptr (obj, off)) ~width:1
                      ~v:(Sval.of_term (sub v8))
                  with
                  | Ok mem' -> mem'
                  | Error _ -> err "summary: global write to %s failed" gname)
              | None -> err "summary: unknown global %s" gname)
            st.State.mem tr.Summary.t_writes
        in
        let st = { st with State.mem = mem } in
        let st =
          match (dst, rv) with
          | (Some d, Some t) -> State.set_reg st d (Sval.of_term (sub t))
          | (Some d, None) -> State.set_reg st d (Sval.Con (32, 0L))
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
