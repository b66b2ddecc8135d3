(** Top-level symbolic-execution engine: explores all paths of a module's
    [main] for a given symbolic input size, under time/path budgets, and
    reports the statistics the paper's evaluation uses (t_verify, number of
    paths, number of interpreted instructions, solver counters).

    Every searcher runs one work-sharing loop ({!explore}): [n] workers over
    one lock-protected frontier, [n = 1] for [`Dfs]/[`Bfs], each worker
    owning a private solver/blast context, and global budgets enforced
    through atomics.  Results are deterministic modulo scheduling — for a
    run that completes exploration, [paths], [exit_codes], [bugs] and
    [blocks_covered] are canonically sorted/merged so that every searcher
    (and every worker count) reports byte-identical values.

    {2 Hardening}

    Mid-run failures degrade instead of aborting.  A worker exception
    (real or injected via {!Fault}) abandons only the path that raised it;
    a per-query solver timeout demotes that one path to unknown; budget
    exhaustion stops exploration but keeps everything proved so far.
    Every such event is recorded in [result.degradations] — what was hit,
    where, and how many paths it cost — and [complete] is now simply
    "no degradations".  The only exceptions that still escape [run] are
    {!Fault.Killed}, the injected analogue of SIGKILL, which the
    checkpoint/resume machinery (one-worker runs, [checkpoint_dir]) exists
    to survive, and genuine resource collapse ([Out_of_memory],
    [Stack_overflow]). *)

module Ir = Overify_ir.Ir
module Bv = Overify_solver.Bv
module Solver = Overify_solver.Solver
module Obs = Overify_obs.Obs
module Fault = Overify_fault.Fault
module Cancel = Overify_fault.Cancel
module Counters = Obs.Counters

type config = {
  input_size : int;
  max_paths : int;       (** stop after completing this many paths *)
  max_insts : int;       (** total dynamic instruction budget *)
  timeout : float;       (** wall-clock seconds *)
  searcher : [ `Dfs | `Bfs | `Parallel of int ];
  profile : bool;        (** attribute cost per (function, block) *)
  summaries : bool;
      (** compositional mode: build (or load from the store) per-function
          summaries bottom-up before exploring, and instantiate them at
          call sites instead of inlining.  Verdicts are identical either
          way — only instructions/forks/queries move.  Defaults to the
          [OVERIFY_SUMMARIES] environment variable. *)
  solver_cache : bool option;
      (** enable the solver's reuse layers; [None] defers to the
          [OVERIFY_SOLVER_CACHE] environment variable (default on).
          Answers are identical either way — only hit counters move. *)
  store : Overify_solver.Store.t option;
      (** cross-run solver store shared by all workers; the engine reads
          and adds, its owner loads and saves it *)
  faults : Fault.t option;
      (** injected-fault schedule (solver timeouts, store corruption,
          alloc exhaustion, worker crashes, kill); [None] = no chaos *)
  checkpoint_dir : string option;
      (** write periodic frontier snapshots here (one-worker runs only);
          enables [resume] *)
  checkpoint_every : int;
      (** snapshot every N completed paths (one-worker runs) *)
  resume : bool;
      (** seed the run from [checkpoint_dir]'s snapshot when one exists
          and matches this program/config; otherwise start fresh *)
  span : Obs.Span.t option;
      (** parent span for request tracing: the run opens an
          ["engine.run"] child under it, with ["summary.build"] and
          per-worker ["symex.worker<i>"] children that close with their
          worker's counters — the records the result totals are summed
          from, so per-span sums equal [result] exactly, like the
          profile's per-site sums.  Solver contexts get per-query
          ["solver.check"] leaves.  [None] (the default) opens
          ["engine.run"] as a root span while {!Obs.Trace} is collecting
          (CLI [--trace]) and otherwise traces nothing. *)
  cancel : Overify_fault.Cancel.t option;
      (** cooperative cancellation token (see {!Overify_fault.Cancel}),
          checked at worklist pops, at the periodic budget points, around
          the summary build and before every solver query.  A set (or
          past-deadline) token stops exploration promptly and is reported
          as a ["deadline_exceeded"] degradation carrying the
          cancellation reason — the run still returns every verdict
          proved so far, and anything already published to the shared
          store/summary caches is complete (pure memoization), so a
          cancelled-then-retried run is byte-identical to an uncancelled
          one under [result_to_json ~deterministic].  [None] (the
          default) cancels nothing and costs one [option] branch per
          check point. *)
}

let env_summaries =
  match Sys.getenv_opt "OVERIFY_SUMMARIES" with
  | Some ("1" | "true" | "on") -> true
  | _ -> false

let default_config =
  {
    input_size = 4;
    max_paths = 1_000_000;
    max_insts = 200_000_000;
    timeout = 60.0;
    searcher = `Dfs;
    profile = false;
    summaries = env_summaries;
    solver_cache = None;
    store = None;
    faults = None;
    checkpoint_dir = None;
    checkpoint_every = 64;
    resume = false;
    span = None;
    cancel = None;
  }

type bug = {
  kind : string;
  input : string;        (** concrete input reproducing the bug *)
  at_function : string;
}

type degradation = {
  d_kind : string;
      (** what gave way: one of [path_budget], [inst_budget],
          [wall_clock], [solver_timeout], [worker_crash],
          [executor_error], [alloc_exhausted], [path_dropped],
          [deadline_exceeded] (cooperative cancellation) *)
  d_where : string;  (** site/reason detail (may be empty) *)
  d_paths : int;
      (** paths affected; for a stop (budgets, cancellation) the states
          left on the frontier plus those abandoned mid-run *)
}

type result = {
  paths : int;                  (** completed (exited) paths *)
  bugs : bug list;
  instructions : int;           (** dynamic instructions over all paths *)
  forks : int;
  queries : int;
  cache_hits : int;
  solver_time : float;
  components : int;             (** independent subproblems seen *)
  component_solves : int;       (** raw blast+SAT solver invocations *)
  hits_canon : int;             (** per-layer solver cache hits... *)
  hits_store : int;             (** ...all sums over workers *)
  summary_instantiated : int;   (** call sites answered by a summary *)
  summary_opaque : int;         (** call sites whose summary was opaque *)
  summary_computed : int;       (** summaries built fresh this run *)
  summary_cached : int;         (** summaries loaded from the store *)
  time : float;                 (** total verification wall time *)
  complete : bool;
      (** derived: [degradations = []].  Kept because "did exploration
          cover everything" is the question most callers ask. *)
  degradations : degradation list;
      (** the structured reasons a run is incomplete, canonically sorted
          (kind, where); empty iff [complete] *)
  faults_injected : (string * int) list;
      (** per-kind injected-fault counts (all kinds, zeros included)
          when a schedule was attached; [[]] otherwise *)
  resumed : bool;  (** this run was seeded from a checkpoint *)
  exit_codes : (string * int64) list;
      (** per completed path: concrete witness input and its exit code *)
  blocks_covered : int;  (** basic blocks reached on some explored path *)
  blocks_total : int;    (** blocks of the functions reachable from main *)
  jobs : int;            (** worker domains used (1 for `Dfs/`Bfs) *)
  profile : Obs.Profile.t option;
      (** per-(function, block) attribution, merged over workers; present
          iff [config.profile] was set *)
}

(** Extract a concrete input string from a state's model. *)
let input_of_model (input_vars : int array) (st : State.t) =
  String.init (Array.length input_vars) (fun i ->
      let v = Solver.Pc.value st.State.pc input_vars.(i) in
      Char.chr (Int64.to_int (Int64.logand v 0xFFL)))

(* ---------------- per-worker accumulation ---------------- *)

(** Everything one worker accumulates.  Workers never share mutable state
    besides the frontier: the executor context (with its solver context,
    coverage table and cost counters) and the result lists are private,
    merged deterministically after the join. *)
type worker = {
  gctx : Executor.gctx;
  mutable exits : (string * int64) list;   (** (witness, exit code), unordered *)
  bug_tbl : (string * string, string) Hashtbl.t;
      (** (kind, function) -> smallest witness input seen *)
  mutable degs : (string * string * int) list;
      (** raw degradation events (kind, where, paths), merged after join *)
  mutable killed : exn option;
      (** [Fault.Killed], [Out_of_memory] or [Stack_overflow] caught by
          this worker; re-raised after the join (a kill must look like
          process death) *)
}

let degrade w kind where npaths = w.degs <- (kind, where, npaths) :: w.degs

(* The path completed at main's returning block, the profile's current
   site: no step runs between the one that exited and this count. *)
let record_exit w input_vars (st : State.t) code =
  let c = w.gctx.Executor.counters in
  c.Counters.paths <- c.Counters.paths + 1;
  let witness = input_of_model input_vars st in
  let code_v =
    match code with
    | Some (Sval.Con (_, v)) -> Ir.to_signed 32 v
    | Some (Sval.Sym t) ->
        Ir.to_signed 32 (Bv.eval (Solver.Pc.value st.State.pc) t)
    | Some (Sval.Ptr _ | Sval.Sym_ptr _) | None -> 0L
  in
  w.exits <- (witness, code_v) :: w.exits

(** Deduplicate by (kind, function) but keep the lexicographically smallest
    witness: every occurrence of a bug is still enumerated, so the kept
    witness is independent of exploration order — the determinism contract
    extends to [bugs]. *)
let record_bug w input_vars (st : State.t) kind =
  let fname = (State.top st).State.fn.Ir.fname in
  let witness = input_of_model input_vars st in
  match Hashtbl.find_opt w.bug_tbl (kind, fname) with
  | Some old when old <= witness -> ()
  | _ -> Hashtbl.replace w.bug_tbl (kind, fname) witness

let record_error w msg =
  Hashtbl.replace w.bug_tbl ("executor error: " ^ msg, "?") "";
  degrade w "executor_error" msg 1

(** An abandoned path (T_drop), classified for the degradation ladder. *)
let record_drop w (st : State.t) reason =
  let fname = (State.top st).State.fn.Ir.fname in
  degrade w (Executor.drop_kind reason) (Printf.sprintf "%s: %s" fname reason) 1

(* ---------------- checkpointing (one-worker runs) ---------------- *)

type ckpt = {
  ck_dir : string;
  ck_dig : string;
  ck_every : int;
  mutable ck_at : int;  (** [paths] when the last snapshot was written *)
}

let snapshot_of_worker (w : worker) frontier : Checkpoint.snapshot =
  let c = w.gctx.Executor.counters in
  {
    Checkpoint.ck_paths = c.Counters.paths;
    ck_exits = w.exits;
    ck_bugs = Hashtbl.fold (fun k v acc -> (k, v) :: acc) w.bug_tbl [];
    ck_covered =
      Hashtbl.fold (fun k () acc -> k :: acc) w.gctx.Executor.covered [];
    ck_insts = c.Counters.instructions;
    ck_forks = c.Counters.forks;
    ck_degs = w.degs;
    ck_frontier = frontier;
  }

(* ---------------- exploration ---------------- *)

exception Halt
(** Raised inside a worker to abandon its state once the run has stopped
    (its own budget check, or another worker's stop). *)

(** The exploration loop of every searcher.  [workers] (worker 0 on the
    calling domain, the rest on spawned domains) share one frontier under
    one mutex: a stack, or a queue under [`Bfs].  A worker drives a popped
    state until it forks or ends, pushes the step's continuations in
    transition order and pops its next state, so one worker visits states
    in exactly the DFS/BFS order.  [active] counts the workers not
    waiting for a state (all of them at the start); an empty frontier
    with none active is global quiescence.

    Budgets are global: completed paths and executed instructions are
    counted in atomics seeded from worker 0's counters (which hold a
    resumed snapshot's counts) and checked at every completed path and
    every 2048 steps.  The first stop — a budget, a cancellation or a kill
    — wins and is recorded where it fires; every worker then abandons its
    state.  A budget or cancellation stop becomes one degradation whose
    [d_paths] counts the frontier left plus the abandoned states.

    Containment: an exception while driving a state abandons that state
    (recording a degradation) and the worker carries on.  [Fault.Killed],
    [Out_of_memory] and [Stack_overflow] stop the run and are re-raised
    unchanged after the join.

    With one worker, checkpoints are cut between pops, where the frontier
    is exactly the set of unexplored subtree roots: snapshot + rest of the
    run partitions the path tree, so resume reproduces an uninterrupted
    run's verdicts.  A drained run deletes its snapshot; a stopped one
    keeps the last, so it can be resumed with a bigger budget. *)
let explore config (workers : worker list) init_states deadline input_vars
    ~(ckpt : ckpt option) =
  let w0 = List.hd workers in
  let c0 = w0.gctx.Executor.counters in
  let bfs = config.searcher = `Bfs in
  let stack = Stack.create () and queue = Queue.create () in
  let push st = if bfs then Queue.add st queue else Stack.push st stack in
  let take () = if bfs then Queue.take_opt queue else Stack.pop_opt stack in
  let frontier () =
    List.of_seq (if bfs then Queue.to_seq queue else Stack.to_seq stack)
  in
  (* a stack pops its last push first: seed in reverse to keep the order *)
  List.iter push (if bfs then init_states else List.rev init_states);
  let mutex = Mutex.create () and wakeup = Condition.create () in
  let active = ref (List.length workers) in
  let stop = Atomic.make false in
  let stopped_by = ref None in
  let abandoned = Atomic.make 0 in
  let paths = Atomic.make c0.Counters.paths in
  let insts = Atomic.make c0.Counters.instructions in
  (* [mutex] held; [why] is the degradation, [None] for a kill *)
  let stop_locked why =
    if not (Atomic.get stop) then begin
      stopped_by := why;
      Atomic.set stop true
    end;
    Condition.broadcast wakeup
  in
  let halt why =
    Mutex.lock mutex;
    stop_locked why;
    Mutex.unlock mutex
  in
  let budget_kind () =
    if Atomic.get paths >= config.max_paths then Some "path_budget"
    else if Atomic.get insts >= config.max_insts then Some "inst_budget"
    else if Unix.gettimeofday () > deadline then Some "wall_clock"
    else None
  in
  let maybe_checkpoint () =
    match ckpt with
    | Some ck when c0.Counters.paths - ck.ck_at >= ck.ck_every ->
        ck.ck_at <- c0.Counters.paths;
        ignore
          (Checkpoint.save ~dir:ck.ck_dir ~digest:ck.ck_dig
             (snapshot_of_worker w0 (frontier ())))
    | _ -> ()
  in
  let worker_loop (w : worker) =
    let gctx = w.gctx in
    let c = gctx.Executor.counters in
    (* instructions reach the shared atomic in batches, so the global
       budget costs no per-step contention *)
    let flushed = ref c.Counters.instructions in
    let check () =
      ignore (Atomic.fetch_and_add insts (c.Counters.instructions - !flushed));
      flushed := c.Counters.instructions;
      if Atomic.get stop then raise Halt;
      (* cancellation outranks budgets: a deadline set at admission may
         predate the engine's own wall clock *)
      Cancel.check config.cancel;
      match budget_kind () with
      | Some k ->
          halt (Some (k, "exploration budget"));
          raise Halt
      | None -> ()
    in
    let on_transition = function
      | Executor.T_cont st' -> Some st'
      | Executor.T_exit (st', code) ->
          Atomic.incr paths;
          record_exit w input_vars st' code;
          check ();
          None
      | Executor.T_drop (st', reason) ->
          record_drop w st' reason;
          None
      | Executor.T_bug (st', kind) ->
          record_bug w input_vars st' kind;
          None
    in
    let steps = ref 0 in
    (* drive [st] until it forks or ends; returns its continuations *)
    let rec advance st =
      incr steps;
      if !steps land 2047 = 0 then check ();
      match Executor.step gctx st with
      | [ Executor.T_cont st' ] -> advance st'
      | transitions -> List.filter_map on_transition transitions
    in
    (* push the finished state's continuations, then pop the next state;
       the worklist-pop cancellation point *)
    let next conts =
      Mutex.lock mutex;
      List.iter push conts;
      if conts <> [] then Condition.broadcast wakeup;
      decr active;
      maybe_checkpoint ();
      (match Cancel.check config.cancel with
      | () -> ()
      | exception Cancel.Cancelled reason ->
          stop_locked (Some ("deadline_exceeded", reason)));
      let rec go () =
        if Atomic.get stop then None
        else
          match take () with
          | Some st ->
              incr active;
              Some st
          | None when !active = 0 ->
              Condition.broadcast wakeup;
              None
          | None ->
              Condition.wait wakeup mutex;
              go ()
      in
      let r = go () in
      Mutex.unlock mutex;
      r
    in
    let rec work conts =
      match next conts with
      | None -> ()
      | Some st ->
          work
            (try advance st with
            | Halt ->
                Atomic.incr abandoned;
                []
            | Cancel.Cancelled reason ->
                Atomic.incr abandoned;
                halt (Some ("deadline_exceeded", reason));
                []
            | Solver.Timeout ->
                degrade w "solver_timeout" "solver query gave up" 1;
                []
            | Executor.Symex_error msg ->
                record_error w msg;
                []
            | Fault.Crash msg ->
                degrade w "worker_crash" msg 1;
                []
            | (Fault.Killed _ | Out_of_memory | Stack_overflow) as e ->
                w.killed <- Some e;
                halt None;
                []
            | e ->
                degrade w "worker_crash" (Printexc.to_string e) 1;
                [])
    in
    work []
  in
  let spawned =
    List.map (fun w -> Domain.spawn (fun () -> worker_loop w)) (List.tl workers)
  in
  worker_loop w0;
  List.iter Domain.join spawned;
  (* a kill simulates process death: nothing after the join (merge,
     counters, the store owner's save) may run, exactly as if we had been
     SIGKILLed *)
  List.iter (fun w -> Option.iter raise w.killed) workers;
  match !stopped_by with
  | Some (kind, where) ->
      degrade w0 kind where (List.length (frontier ()) + Atomic.get abandoned)
  | None ->
      (* drained: a finished run must not be resumable into a duplicate *)
      Option.iter (fun ck -> Checkpoint.delete ~dir:ck.ck_dir) ckpt

(* ---------------- driver ---------------- *)

let run ?(config = default_config) (m : Ir.modul) : result =
  (* each run is self-contained: drop hash-consed terms; solver caches are
     per-worker and freshly created below *)
  Bv.reset ();
  let t_start = Unix.gettimeofday () in
  let deadline = t_start +. config.timeout in
  (* request tracing: one engine child under the caller's span (or a root
     while the trace sink collects), opened here so every sub-span
     (summary build, workers, solver queries) nests inside its interval *)
  let eng_span = Obs.Span.start_traced ?parent:config.span "engine.run" in
  (* globals *)
  let mem = ref Memory.empty in
  let globals =
    List.map
      (fun (g : Ir.global) ->
        let (m', obj) =
          Memory.alloc_bytes ~writable:(not g.Ir.gconst) !mem g.Ir.ginit
            ~size:g.Ir.gsize
        in
        mem := m';
        (g.Ir.gname, obj))
      m.Ir.globals
  in
  (* fresh symbolic variables for the input bytes; the ids are a pure
     function of the input size, so models recorded before a checkpoint
     stay valid after a resume *)
  let input_vars =
    Array.init config.input_size (fun i -> 1_000_000 + (config.input_size * 7919) + i)
  in
  let main =
    match Ir.find_func m "main" with
    | Some f -> f
    | None -> invalid_arg "Engine.run: module has no main"
  in
  let entry = Ir.entry main in
  let init_state =
    {
      State.frames =
        [
          {
            State.fn = main;
            regs = State.IMap.empty;
            cur_block = entry.Ir.bid;
            prev_block = -1;
            insts = entry.Ir.insts;
            term = entry.Ir.term;
            ret_dst = None;
            frame_objs = [];
          };
        ];
      mem = !mem;
      pc = Solver.Pc.empty;
    }
  in
  let njobs =
    match config.searcher with
    | `Parallel j ->
        if j < 1 then invalid_arg "Engine.run: `Parallel needs >= 1 worker";
        j
    | `Dfs | `Bfs -> 1
  in
  (* the fingerprint prints the whole module (about a millisecond); only
     a run that resumes or writes checkpoints needs it *)
  let ck_digest =
    lazy (Checkpoint.fingerprint m ~input_size:config.input_size)
  in
  let snapshot =
    if config.resume then
      Option.bind config.checkpoint_dir (fun dir ->
          Checkpoint.load ~dir ~digest:(Lazy.force ck_digest))
    else None
  in
  let glayout = Overify_summary.Summary.layout m in
  let make_worker i =
    let prof = if config.profile then Some (Obs.Profile.create ()) else None in
    let counters = Counters.create () in
    let wspan =
      Option.map
        (fun parent ->
          Obs.Span.start ~parent (Printf.sprintf "symex.worker%d" i))
        eng_span
    in
    let solver =
      Solver.create ~counters ~deadline ?cancel:config.cancel
        ?hist:(Option.map Obs.Profile.qhist prof)
        ?span:wspan ?cache:config.solver_cache ?store:config.store
        ?faults:config.faults ()
    in
    let gctx =
      {
        Executor.modul = m;
        block_tbls = Hashtbl.create 16;
        globals;
        input_vars;
        solver;
        counters;
        faults = config.faults;
        covered = Hashtbl.create 64;
        prof;
        glayout;
        summaries = None;
        building = false;
        sym_deref = false;
        fork_conds = [];
        span = wspan;
      }
    in
    Hashtbl.replace gctx.Executor.covered (main.Ir.fname, entry.Ir.bid) ();
    { gctx; exits = []; bug_tbl = Hashtbl.create 8; degs = []; killed = None }
  in
  let workers = List.init njobs make_worker in
  (* compositional mode: worker 0 builds (or loads) the summary table
     bottom-up before exploration, on its own solver and counters —
     so build cost is charged like any other execution — and every
     worker shares the resulting (read-only from here on) table *)
  let summary_computed, summary_cached =
    if not config.summaries then (0, 0)
    else begin
      let bspan =
        Option.map
          (fun parent -> Obs.Span.start ~parent "summary.build")
          eng_span
      in
      let w0 = List.hd workers in
      let tbl, computed, cached, build_degs =
        (* a build cancelled mid-way degrades like any other build fault:
           summaries already published to the store are individually
           complete, everything unbuilt is explored inline (and the
           exploration loop re-checks the token immediately) *)
        try Summarize.build ~gctx:w0.gctx ~store:config.store m
        with Cancel.Cancelled reason ->
          (Hashtbl.create 0, 0, 0, [ ("deadline_exceeded", reason) ])
      in
      List.iter
        (fun w -> w.gctx.Executor.summaries <- Some tbl)
        workers;
      (* a fault that fires during summary construction (solver timeout,
         contained crash, dropped path) demotes its function to inline
         exploration — sound, but never silent *)
      List.iter (fun (kind, where) -> degrade w0 kind where 0) build_degs;
      (match bspan with
      | Some sp ->
          Obs.Span.finish sp
            ~counters:
              [ ("computed", float_of_int computed);
                ("cached", float_of_int cached) ]
      | None -> ());
      (computed, cached)
    end
  in
  (* a resumed run continues the snapshot's accumulators in worker 0 and
     explores its saved frontier; the checkpoint was cut at a quiescent
     point, so snapshot + frontier partitions the path tree and the union
     of verdicts equals an uninterrupted run's *)
  let init_states =
    match snapshot with
    | None -> [ init_state ]
    | Some s ->
        let w0 = List.hd workers in
        w0.exits <- s.Checkpoint.ck_exits;
        List.iter
          (fun (k, v) -> Hashtbl.replace w0.bug_tbl k v)
          s.Checkpoint.ck_bugs;
        List.iter
          (fun k -> Hashtbl.replace w0.gctx.Executor.covered k ())
          s.Checkpoint.ck_covered;
        let c = w0.gctx.Executor.counters in
        (* the run that saved the snapshot attributed its counts *)
        Option.iter (fun p -> Obs.Profile.leave p c) w0.gctx.Executor.prof;
        c.Counters.paths <- s.Checkpoint.ck_paths;
        c.Counters.instructions <- s.Checkpoint.ck_insts;
        c.Counters.forks <- s.Checkpoint.ck_forks;
        w0.degs <- s.Checkpoint.ck_degs;
        s.Checkpoint.ck_frontier
  in
  let ckpt =
    match config.checkpoint_dir with
    | Some dir when njobs = 1 ->
        Some
          {
            ck_dir = dir;
            ck_dig = Lazy.force ck_digest;
            ck_every = max 1 config.checkpoint_every;
            ck_at = (List.hd workers).gctx.Executor.counters.Counters.paths;
          }
    | _ -> None
  in
  explore config workers init_states deadline input_vars ~ckpt;
  (* ---- deterministic merge: canonical order for everything a completed
     exploration reports, so `Dfs, `Bfs and `Parallel n agree exactly ---- *)
  let exit_codes =
    List.sort compare (List.concat_map (fun w -> w.exits) workers)
  in
  let merged_bugs = Hashtbl.create 16 in
  List.iter
    (fun w ->
      Hashtbl.iter
        (fun key witness ->
          match Hashtbl.find_opt merged_bugs key with
          | Some old when old <= witness -> ()
          | _ -> Hashtbl.replace merged_bugs key witness)
        w.bug_tbl)
    workers;
  let bugs =
    Hashtbl.fold
      (fun (kind, fname) input acc ->
        { kind; input; at_function = fname } :: acc)
      merged_bugs []
    |> List.sort (fun a b ->
           match compare a.kind b.kind with
           | 0 -> (
               match compare a.at_function b.at_function with
               | 0 -> compare a.input b.input
               | c -> c)
           | c -> c)
  in
  (* degradations merge like every other verdict: group by (kind, where),
     sum affected paths, canonical sort *)
  let degradations =
    let tbl = Hashtbl.create 8 in
    List.iter
      (fun w ->
        List.iter
          (fun (k, where, n) ->
            let cur =
              match Hashtbl.find_opt tbl (k, where) with
              | Some c -> c
              | None -> 0
            in
            Hashtbl.replace tbl (k, where) (cur + n))
          w.degs)
      workers;
    Hashtbl.fold
      (fun (d_kind, d_where) d_paths acc -> { d_kind; d_where; d_paths } :: acc)
      tbl []
    |> List.sort compare
  in
  let faults_injected =
    match config.faults with Some f -> Fault.injected f | None -> []
  in
  let covered = Hashtbl.create 64 in
  List.iter
    (fun w ->
      Hashtbl.iter
        (fun k () -> Hashtbl.replace covered k ())
        w.gctx.Executor.covered)
    workers;
  (* close the per-worker spans with the very records the result totals
     are summed from, so per-span sums equal the engine's by construction *)
  List.iter
    (fun w ->
      match w.gctx.Executor.span with
      | Some sp ->
          Obs.Span.finish sp
            ~counters:(Counters.to_list w.gctx.Executor.counters)
      | None -> ())
    workers;
  let total =
    Counters.sum (List.map (fun w -> w.gctx.Executor.counters) workers)
  in
  let profile =
    if not config.profile then None
    else begin
      let merged = Obs.Profile.create () in
      List.iter
        (fun w ->
          match w.gctx.Executor.prof with
          | Some p ->
              (* the worker's final cut: its last site's costs *)
              Obs.Profile.leave p w.gctx.Executor.counters;
              Obs.Profile.merge_into merged p
          | None -> ())
        workers;
      Some merged
    end
  in
  let complete = degradations = [] in
  let time = Unix.gettimeofday () -. t_start in
  (match eng_span with
  | Some sp ->
      (* degradations and fired faults become instant flight events on
         the request's trace — the post-mortem trail of a degraded run *)
      List.iter
        (fun d ->
          Obs.Span.event ~parent:sp
            ~args:
              [ ("kind", d.d_kind); ("where", d.d_where);
                ("paths", string_of_int d.d_paths) ]
            "degradation")
        degradations;
      List.iter
        (fun (k, n) ->
          if n > 0 then
            Obs.Span.event ~parent:sp
              ~args:[ ("kind", k); ("count", string_of_int n) ]
              "fault.injected")
        faults_injected;
      Obs.Span.finish sp ~counters:(Counters.to_list total)
  | None -> ());
  {
    paths = total.Counters.paths;
    bugs;
    instructions = total.Counters.instructions;
    forks = total.Counters.forks;
    queries = total.Counters.queries;
    cache_hits = total.Counters.cache_hits;
    solver_time = total.Counters.solver_time;
    components = total.Counters.components;
    component_solves = total.Counters.component_solves;
    hits_canon = total.Counters.hits_canon;
    hits_store = total.Counters.hits_store;
    summary_instantiated = total.Counters.summary_instantiated;
    summary_opaque = total.Counters.summary_opaque;
    summary_computed;
    summary_cached;
    time;
    complete;
    degradations;
    faults_injected;
    resumed = snapshot <> None;
    exit_codes;
    blocks_covered = Hashtbl.length covered;
    blocks_total =
      List.fold_left
        (fun acc f -> acc + Ir.num_blocks f)
        0
        (Overify_ir.Callgraph.reachable m "main");
    jobs = njobs;
    profile;
  }

let same_verdicts a b =
  a.paths = b.paths && a.exit_codes = b.exit_codes && a.bugs = b.bugs
  && a.blocks_covered = b.blocks_covered

(* ---------------- structured JSON ---------------- *)

(** Machine-readable run result with a fixed key order (goldenable: the
    degraded-run JSON shape is asserted by test_obs).  [deterministic]
    zeroes everything that is not a verdict: wall-clock times,
    [cache_hits] (warm solver-store state, e.g. a cold one-shot CLI run
    versus a warm daemon — the serve-vs-CLI differential compares these
    documents byte-for-byte), the effort counters ([instructions],
    [forks], [queries]) and the summary counters, which legitimately
    differ between compositional and inline exploration while every
    verdict field is byte-identical (the summary-vs-inline differential
    relies on this). *)
let result_to_json ?(deterministic = false) (r : result) : string =
  let buf = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let det v = if deterministic then 0 else v in
  add "{";
  add "\"paths\": %d, " r.paths;
  add "\"instructions\": %d, " (det r.instructions);
  add "\"forks\": %d, " (det r.forks);
  add "\"queries\": %d, " (det r.queries);
  add "\"cache_hits\": %d, " (det r.cache_hits);
  add "\"summary_instantiated\": %d, " (det r.summary_instantiated);
  add "\"summary_opaque\": %d, " (det r.summary_opaque);
  add "\"summary_computed\": %d, " (det r.summary_computed);
  add "\"summary_cached\": %d, " (det r.summary_cached);
  add "\"time_ms\": %.1f, " (if deterministic then 0.0 else r.time *. 1000.0);
  add "\"solver_time_ms\": %.1f, "
    (if deterministic then 0.0 else r.solver_time *. 1000.0);
  add "\"blocks_covered\": %d, " r.blocks_covered;
  add "\"blocks_total\": %d, " r.blocks_total;
  add "\"jobs\": %d, " r.jobs;
  add "\"complete\": %b, " r.complete;
  add "\"resumed\": %b, " r.resumed;
  add "\"degradations\": [%s], "
    (String.concat ", "
       (List.map
          (fun d ->
            Printf.sprintf
              "{\"kind\": \"%s\", \"where\": \"%s\", \"paths\": %d}"
              (Obs.json_escape d.d_kind) (Obs.json_escape d.d_where) d.d_paths)
          r.degradations));
  add "\"faults_injected\": [%s], "
    (String.concat ", "
       (List.map
          (fun (k, n) -> Printf.sprintf "{\"kind\": \"%s\", \"count\": %d}" k n)
          r.faults_injected));
  add "\"bugs\": [%s]"
    (String.concat ", "
       (List.map
          (fun b ->
            Printf.sprintf
              "{\"kind\": \"%s\", \"function\": \"%s\", \"input\": \"%s\"}"
              (Obs.json_escape b.kind) (Obs.json_escape b.at_function)
              (Obs.json_escape b.input))
          r.bugs));
  add "}";
  Buffer.contents buf
