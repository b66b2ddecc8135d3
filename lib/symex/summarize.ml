(** The summary builder: exhaustive per-function symbolic exploration.

    [build] walks the summarizable functions bottom-up (callees first) and
    computes, for each, the complete set of execution traces under
    unconstrained symbolic parameters and fully symbolic writable-global
    contents — a {e build world} whose memory is allocated from
    [Memory.empty] in module order, so global object ids coincide with the
    main run's and the summaries transfer unchanged.

    The builder reuses {!Executor.step} verbatim with [gctx.building] set:
    calls inline (nested branch conjuncts must flow through the real Cbr
    discipline to be flavored), branch conjuncts are recorded in
    [gctx.fork_conds], and a per-trace coverage table is swapped through
    the (mutable) [gctx.covered] so each trace knows exactly the blocks it
    touches.  Path conjuncts are recovered per step by diffing the child's
    path against the parent's (paths share their tail physically).

    Anything that would make replay unfaithful or unbounded demotes the
    function to [Opaque]: dropped paths, symbolic memory offsets (their
    bug message is context-dependent), trace-count or instruction budgets,
    solver timeouts, contained crashes.  Structural reasons are published
    to the store; transient ones (timeouts, injected faults) are not, so a
    later run may retry. *)

module Ir = Overify_ir.Ir
module Bv = Overify_solver.Bv
module Solver = Overify_solver.Solver
module Store = Overify_solver.Store
module Fault = Overify_fault.Fault
module Summary = Overify_summary.Summary
module Counters = Overify_obs.Obs.Counters

let max_traces = 64
let max_insts = 50_000

exception Give_up of string
exception Dropped of string

(** Reasons that are a property of the program (not of this run's luck)
    and may therefore be persisted alongside real summaries. *)
let publishable = function
  | Summary.Summarized _ -> true
  | Summary.Opaque
      ("too many traces" | "instruction budget" | "symbolic memory offset")
    ->
      true
  | Summary.Opaque _ -> false

(** The build world's initial memory: same allocation order (hence the
    same object ids) as {!Engine.run}, but writable globals start fully
    symbolic — one 8-bit cell variable per byte, ids from the layout. *)
let build_memory (m : Ir.modul) (glayout : Summary.layout) : Memory.t =
  let mem = ref Memory.empty in
  List.iter
    (fun (g : Ir.global) ->
      if g.Ir.gconst then begin
        let m', _ =
          Memory.alloc_bytes ~writable:false !mem g.Ir.ginit ~size:g.Ir.gsize
        in
        mem := m'
      end
      else begin
        let base =
          match
            List.find_map
              (fun (n, b, _) -> if n = g.Ir.gname then Some b else None)
              glayout
          with
          | Some b -> b
          | None -> assert false (* layout lists every writable global *)
        in
        let vars = Array.init g.Ir.gsize (fun i -> base + i) in
        let m', _ = Memory.alloc_symbolic !mem ~vars in
        mem := m'
      end)
    m.Ir.globals;
  !mem

(** New conjuncts on [child] relative to [parent], in execution order.
    Path lists grow by consing, so the parent's path is a physical suffix
    of the child's. *)
let path_delta ~(parent : Bv.t list) ~(child : Bv.t list) : Bv.t list =
  let rec go acc l = if l == parent then acc else
    match l with
    | [] -> acc (* resumed/foreign state; cannot happen during build *)
    | c :: tl -> go (c :: acc) tl
  in
  go [] child

(** Summarize [fn].  An [Opaque] caused by a runtime event — a solver
    timeout, a contained crash, a dropped path — also carries its
    degradation kind for the engine's ladder ("nothing degrades
    silently": a fault that fires during summary construction must be as
    visible as one that fires during exploration).  Structural reasons
    carry none: demoting a recursive or too-branchy function to inline
    exploration is the design working, not a degradation. *)
let build_one (gctx : Executor.gctx) (fn : Ir.func) :
    Summary.fsum * string option =
  let m = gctx.Executor.modul in
  let entry = Ir.entry fn in
  let mem = build_memory m gctx.Executor.glayout in
  let regs =
    List.fold_left
      (fun (rmap, i) ((r, ty) : int * Ir.ty) ->
        ( State.IMap.add r
            (Sval.of_term (Bv.var (Ir.bits_of_ty ty) (Summary.param_base + i)))
            rmap,
          i + 1 ))
      (State.IMap.empty, 0) fn.Ir.params
    |> fst
  in
  let init =
    {
      State.frames =
        [
          {
            State.fn;
            regs;
            cur_block = entry.Ir.bid;
            prev_block = -1;
            insts = entry.Ir.insts;
            term = entry.Ir.term;
            ret_dst = None;
            frame_objs = [];
          };
        ];
      mem;
      pc = Solver.Pc.empty;
    }
  in
  let insts0 = gctx.Executor.counters.Counters.instructions in
  let traces = ref [] in
  let ntraces = ref 0 in
  let seed_cov = Hashtbl.create 16 in
  Hashtbl.replace seed_cov (fn.Ir.fname, entry.Ir.bid) ();
  (* DFS node: state, its coverage so far, its conjuncts so far (reversed,
     already flavored) *)
  let stack = ref [ (init, seed_cov, []) ] in
  gctx.Executor.sym_deref <- false;
  let leaf cov rev_conjs outcome writes =
    incr ntraces;
    if !ntraces > max_traces then raise (Give_up "too many traces");
    let covered =
      List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) cov [])
    in
    traces :=
      {
        Summary.t_conjuncts = List.rev rev_conjs;
        t_outcome = outcome;
        t_writes = writes;
        t_covered = covered;
      }
      :: !traces
  in
  (* final contents of every writable-global byte that changed *)
  let writes_of (st : State.t) : (string * int * Bv.t) list =
    List.concat_map
      (fun (gname, base, size) ->
        match List.assoc_opt gname gctx.Executor.globals with
        | None -> []
        | Some obj -> (
            match Memory.find st.State.mem obj with
            | None -> []
            | Some o ->
                let out = ref [] in
                for i = size - 1 downto 0 do
                  match o.Memory.cells.(i) with
                  | Sval.Sym t when t == Bv.var 8 (base + i) -> ()
                  | cell -> out := (gname, i, Sval.term cell) :: !out
                done;
                !out))
      gctx.Executor.glayout
  in
  try
    while !stack <> [] do
      if gctx.Executor.counters.Counters.instructions - insts0 > max_insts then
        raise (Give_up "instruction budget");
      let st, cov, conjs =
        match !stack with
        | n :: rest ->
            stack := rest;
            n
        | [] -> assert false
      in
      (* a fresh table collects only this step's coverage marks, so a
         forking step can attribute them to the right child *)
      let delta_tbl = Hashtbl.create 4 in
      gctx.Executor.covered <- delta_tbl;
      gctx.Executor.fork_conds <- [];
      let transitions = Executor.step gctx st in
      let delta = Hashtbl.fold (fun k () acc -> k :: acc) delta_tbl [] in
      let multi = List.length transitions > 1 in
      let fork_conds = gctx.Executor.fork_conds in
      let child_conjs (st' : State.t) =
        List.fold_left
          (fun acc c ->
            { Summary.c_fork = List.memq c fork_conds; c_term = c } :: acc)
          conjs
          (path_delta
             ~parent:(Solver.Pc.conjuncts st.State.pc)
             ~child:(Solver.Pc.conjuncts st'.State.pc))
      in
      let child_cov (st' : State.t) ~terminal =
        if not multi then begin
          List.iter (fun k -> Hashtbl.replace cov k ()) delta;
          cov
        end
        else begin
          (* the only forking step that marks coverage is a two-sided Cbr,
             whose marks are exactly the children's entry positions; any
             other attribution pattern is a case this builder does not
             understand — give up rather than summarize wrongly *)
          let c = Hashtbl.copy cov in
          let mine =
            if terminal then []
            else begin
              let fr = State.top st' in
              let k = (fr.State.fn.Ir.fname, fr.State.cur_block) in
              if List.mem k delta then [ k ] else []
            end
          in
          if
            List.exists
              (fun k ->
                not
                  (List.exists
                     (fun (st'' : State.t) ->
                       match st''.State.frames with
                       | fr :: _ ->
                           (fr.State.fn.Ir.fname, fr.State.cur_block) = k
                       | [] -> false)
                     (List.filter_map
                        (function
                          | Executor.T_cont s | Executor.T_exit (s, _) ->
                              Some s
                          | _ -> None)
                        transitions)))
              delta
          then raise (Give_up "coverage attribution");
          List.iter (fun k -> Hashtbl.replace c k ()) mine;
          c
        end
      in
      List.iter
        (fun tr ->
          match tr with
          | Executor.T_cont st' ->
              stack := (st', child_cov st' ~terminal:false, child_conjs st')
                       :: !stack
          | Executor.T_exit (st', code) ->
              (* the summarized function returning: single-frame states
                 exit instead of popping *)
              let cov' = child_cov st' ~terminal:true in
              leaf cov' (child_conjs st')
                (Summary.O_ret (Option.map Sval.term code))
                (writes_of st')
          | Executor.T_bug (st', kind) ->
              let cov' = child_cov st' ~terminal:true in
              let fr = State.top st' in
              leaf cov' (child_conjs st')
                (Summary.O_bug
                   {
                     bg_kind = kind;
                     bg_fn = fr.State.fn.Ir.fname;
                     bg_block = fr.State.cur_block;
                   })
                []
          | Executor.T_drop (_, reason) -> raise (Dropped reason))
        transitions
    done;
    if gctx.Executor.sym_deref then
      (Summary.Opaque "symbolic memory offset", None)
    else (Summary.Summarized (List.rev !traces), None)
  with
  | Give_up reason -> (Summary.Opaque reason, None)
  | Dropped reason ->
      ( Summary.Opaque ("dropped path: " ^ reason),
        Some (Executor.drop_kind reason) )
  | Solver.Timeout -> (Summary.Opaque "solver timeout", Some "solver_timeout")
  | Executor.Symex_error msg ->
      (Summary.Opaque ("executor: " ^ msg), Some "executor_error")
  | Fault.Crash msg -> (Summary.Opaque ("crash: " ^ msg), Some "worker_crash")

(** Compute (or load from [store]) summaries for every candidate of [m],
    bottom-up, using [gctx]'s solver and counters — the build's
    instructions, forks and queries are charged like any other execution,
    so profile attribution still sums to the run totals.  Returns the
    summary table (also installed into [gctx.summaries]), how many
    summaries were computed fresh and how many came from the store, plus
    the (kind, where) degradation events for fault-induced transient
    opacities (see {!build_one}). *)
let build ~(gctx : Executor.gctx) ~(store : Store.t option) (m : Ir.modul) :
    (string, Summary.fsum) Hashtbl.t * int * int * (string * string) list =
  let tbl = Hashtbl.create 16 in
  gctx.Executor.summaries <- Some tbl;
  let fps = Summary.fingerprints m in
  let computed = ref 0 and cached = ref 0 in
  let degs = ref [] in
  let saved_covered = gctx.Executor.covered in
  Fun.protect
    ~finally:(fun () ->
      gctx.Executor.covered <- saved_covered;
      gctx.Executor.building <- false;
      gctx.Executor.fork_conds <- [];
      gctx.Executor.sym_deref <- false)
    (fun () ->
      gctx.Executor.building <- true;
      List.iter
        (fun name ->
          let key = Summary.store_key (Hashtbl.find fps name) in
          let from_store =
            match store with
            | None -> None
            | Some s -> (
                match Store.find s key with
                | Some (Store.E_blob b) -> Summary.decode b
                | _ -> None)
          in
          match from_store with
          | Some sum ->
              incr cached;
              Hashtbl.replace tbl name sum
          | None ->
              let sum, degraded = build_one gctx (Ir.find_func_exn m name) in
              incr computed;
              Hashtbl.replace tbl name sum;
              (match (sum, degraded) with
              | Summary.Opaque reason, Some kind ->
                  degs :=
                    (kind, Printf.sprintf "summary build %s: %s" name reason)
                    :: !degs
              | _ -> ());
              (match store with
              | Some s when publishable sum ->
                  Store.add s key (Store.E_blob (Summary.encode sum))
              | _ -> ()))
        (Summary.candidates m));
  (tbl, !computed, !cached, List.rev !degs)
