(** Top-level symbolic-execution engine: explores all paths of a module's
    [main] for a given symbolic input size, under time/path budgets, and
    reports the statistics the paper's evaluation uses (t_verify, number of
    paths, number of interpreted instructions, solver counters).

    Exploration runs either sequentially ([`Dfs]/[`Bfs]) or on [n] OCaml
    domains ([`Parallel n]) with a work-sharing scheduler: a lock-protected
    shared frontier of states, each worker owning a private solver/blast
    context, and global budgets enforced through atomics.  Results are
    deterministic modulo scheduling — for a run that completes exploration,
    [paths], [exit_codes], [bugs] and [blocks_covered] are canonically
    sorted/merged so that every searcher (and every worker count) reports
    byte-identical values.

    {2 Hardening}

    Mid-run failures degrade instead of aborting.  A worker exception
    (real or injected via {!Fault}) abandons only the path that raised it;
    a per-query solver timeout demotes that one path to unknown; budget
    exhaustion stops exploration but keeps everything proved so far.
    Every such event is recorded in [result.degradations] — what was hit,
    where, and how many paths it cost — and [complete] is now simply
    "no degradations".  The only exception that still escapes [run] is
    {!Fault.Killed}, the injected analogue of SIGKILL, which the
    checkpoint/resume machinery (sequential searchers, [checkpoint_dir])
    exists to survive. *)

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
  check_bounds : bool;   (** fork out-of-bounds bug paths *)
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
  cache_dir : string option;
      (** attach a persistent cross-run solver store in this directory,
          shared by all workers and saved when the run ends *)
  store : Overify_solver.Store.t option;
      (** an already-open store to reuse instead of loading from
          [cache_dir]; the caller owns it (the engine never saves it) —
          this is how [Serve] keeps one warm store across requests *)
  faults : Fault.t option;
      (** injected-fault schedule (solver timeouts, store corruption,
          alloc exhaustion, worker crashes, kill); [None] = no chaos *)
  checkpoint_dir : string option;
      (** write periodic frontier snapshots here (sequential searchers
          only); enables [resume] *)
  checkpoint_every : int;
      (** snapshot every N completed paths (sequential searchers) *)
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
          ["solver.check"] leaves.  [None] (the default) traces
          nothing. *)
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
    check_bounds = true;
    searcher = `Dfs;
    profile = false;
    summaries = env_summaries;
    solver_cache = None;
    cache_dir = None;
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
  d_paths : int;     (** paths affected (lower bound for budget kinds) *)
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
let input_of_model (input_vars : int array) model =
  String.init (Array.length input_vars) (fun i ->
      let v =
        match List.assoc_opt input_vars.(i) model with
        | Some v -> Int64.to_int (Int64.logand v 0xFFL)
        | None -> 0
      in
      Char.chr v)

(* ---------------- per-worker accumulation ---------------- *)

(** Everything one worker (or the single sequential explorer) accumulates.
    Workers never share mutable state: the executor context (with its solver
    context, coverage table and cost counters) and the result lists are
    private, merged deterministically after the join. *)
type worker = {
  gctx : Executor.gctx;
  mutable exits : (string * int64) list;   (** (witness, exit code), unordered *)
  bug_tbl : (string * string, string) Hashtbl.t;
      (** (kind, function) -> smallest witness input seen *)
  mutable degs : (string * string * int) list;
      (** raw degradation events (kind, where, paths), merged after join *)
  mutable killed : string option;
      (** parallel only: an injected kill seen by this worker; re-raised
          after the join (a kill must look like process death) *)
}

let degrade w kind where npaths = w.degs <- (kind, where, npaths) :: w.degs

let record_exit w input_vars (st : State.t) code =
  let c = w.gctx.Executor.counters in
  c.Counters.paths <- c.Counters.paths + 1;
  (match w.gctx.Executor.prof with
  | Some p ->
      (* the path completed at main's returning block *)
      let cell = Executor.prof_site p st in
      cell.Counters.paths <- cell.Counters.paths + 1
  | None -> ());
  let witness = input_of_model input_vars st.State.model in
  let code_v =
    match code with
    | Some t ->
        Bv.to_signed 32
          (Bv.eval
             (fun id ->
               match List.assoc_opt id st.State.model with
               | Some v -> v
               | None -> 0L)
             t)
    | None -> 0L
  in
  w.exits <- (witness, code_v) :: w.exits

(** Deduplicate by (kind, function) but keep the lexicographically smallest
    witness: every occurrence of a bug is still enumerated, so the kept
    witness is independent of exploration order — the determinism contract
    extends to [bugs]. *)
let record_bug w input_vars (st : State.t) kind =
  let fname = (State.top st).State.fn.Ir.fname in
  let witness = input_of_model input_vars st.State.model in
  match Hashtbl.find_opt w.bug_tbl (kind, fname) with
  | Some old when old <= witness -> ()
  | _ -> Hashtbl.replace w.bug_tbl (kind, fname) witness

let record_error w msg =
  Hashtbl.replace w.bug_tbl ("executor error: " ^ msg, "?") "";
  degrade w "executor_error" msg 1

(** An abandoned path (T_drop), classified for the degradation ladder. *)
let record_drop w (st : State.t) reason =
  let kind =
    if String.length reason >= 10 && String.sub reason 0 10 = "allocation" then
      "alloc_exhausted"
    else "path_dropped"
  in
  let fname = (State.top st).State.fn.Ir.fname in
  degrade w kind (Printf.sprintf "%s: %s" fname reason) 1

(* ---------------- checkpointing (sequential searchers) ---------------- *)

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

(* ---------------- sequential exploration ---------------- *)

exception Out_of_budget of string
(** Which budget tripped: [path_budget] / [inst_budget] / [wall_clock]. *)

(** Classic single-worklist loop, DFS (stack) or BFS (queue), with
    per-path failure containment: an exception thrown while driving one
    state abandons that state (recording a degradation) and the loop
    carries on with the rest of the worklist.  Only {!Fault.Killed} (the
    injected SIGKILL) and genuine resource collapse (OOM, stack overflow)
    still escape.

    Checkpoints are written between pops — at that point the worklist is
    exactly the set of unexplored frontier states, so snapshot + rest of
    the run partitions the path tree and resume reproduces an
    uninterrupted run's verdicts exactly.  Completed paths are counted in
    the worker's counters (a resumed run seeds them from the snapshot). *)
let run_sequential config (w : worker) init_states deadline input_vars
    ~(ckpt : ckpt option) =
  let gctx = w.gctx in
  let c = gctx.Executor.counters in
  let stack = ref [] in
  let queue = Queue.create () in
  let push st =
    match config.searcher with
    | `Bfs -> Queue.add st queue
    | _ -> stack := st :: !stack
  in
  let pop () =
    match config.searcher with
    | `Bfs -> Queue.take_opt queue
    | _ -> (
        match !stack with
        | st :: rest ->
            stack := rest;
            Some st
        | [] -> None)
  in
  (* DFS pops the head, so seed in reverse to preserve frontier order *)
  (match config.searcher with
  | `Bfs -> List.iter push init_states
  | _ -> List.iter push (List.rev init_states));
  let budget_kind () =
    if c.Counters.paths >= config.max_paths then Some "path_budget"
    else if c.Counters.instructions >= config.max_insts then
      Some "inst_budget"
    else if Unix.gettimeofday () > deadline then Some "wall_clock"
    else None
  in
  let check_budget () =
    (* cancellation outranks budgets: a deadline set at admission may
       predate the engine's own wall clock *)
    Cancel.check config.cancel;
    match budget_kind () with
    | Some k -> raise (Out_of_budget k)
    | None -> ()
  in
  let frontier () =
    match config.searcher with
    | `Bfs -> List.of_seq (Queue.to_seq queue)
    | _ -> !stack
  in
  let maybe_checkpoint () =
    match ckpt with
    | Some ck when c.Counters.paths - ck.ck_at >= ck.ck_every ->
        ck.ck_at <- c.Counters.paths;
        ignore
          (Checkpoint.save ~dir:ck.ck_dir ~digest:ck.ck_dig
             (snapshot_of_worker w (frontier ())))
    | _ -> ()
  in
  let check_counter = ref 0 in
  let rec advance st =
    incr check_counter;
    if !check_counter land 2047 = 0 then check_budget ();
    match Executor.step gctx st with
    | [ Executor.T_cont st' ] -> advance st'
    | transitions ->
        List.iter
          (fun tr ->
            match tr with
            | Executor.T_cont st' -> push st'
            | Executor.T_exit (st', code) ->
                record_exit w input_vars st' code;
                check_budget ()
            | Executor.T_drop (st', reason) -> record_drop w st' reason
            | Executor.T_bug (st', kind) -> record_bug w input_vars st' kind)
          transitions
  in
  (try
     let running = ref true in
     while !running do
       maybe_checkpoint ();
       (* worklist-pop cancellation point *)
       Cancel.check config.cancel;
       match pop () with
       | None -> running := false
       | Some st -> (
           try advance st with
           | (Out_of_budget _ | Cancel.Cancelled _ | Fault.Killed _
             | Out_of_memory | Stack_overflow) as e ->
               raise e
           | Solver.Timeout ->
               degrade w "solver_timeout" "solver query gave up" 1
           | Executor.Symex_error msg -> record_error w msg
           | Fault.Crash msg -> degrade w "worker_crash" msg 1
           | e -> degrade w "worker_crash" (Printexc.to_string e) 1)
     done;
     (* exploration drained completely: a finished run must not be
        resumable into a duplicate *)
     match ckpt with
     | Some ck -> Checkpoint.delete ~dir:ck.ck_dir
     | None -> ()
   with
  | Out_of_budget k ->
      (* everything still on the worklist (plus the in-flight state) is
         unexplored; the last periodic snapshot, if any, remains on disk
         so a budget-exhausted run can also be resumed *)
      degrade w k "exploration budget" (1 + List.length (frontier ()))
  | Cancel.Cancelled reason ->
      (* cooperative cancellation: same shape as a tripped budget — keep
         every verdict proved so far, report the frontier as unexplored *)
      degrade w "deadline_exceeded" reason (1 + List.length (frontier ())))

(* ---------------- parallel exploration ---------------- *)

exception Halt
(** Raised inside a worker to abandon its current state chain after a global
    stop (budget exhausted or an injected kill). *)

(** Work-sharing scheduler over [n] domains.  The frontier is a shared
    queue under one mutex; a worker drives each popped state depth-first,
    keeps the first continuation of every fork for itself and publishes the
    rest.  [active] counts workers currently driving a state, so the
    termination condition (empty frontier and nobody active) is detected
    without polling.  Budgets are global: completed paths and executed
    instructions are aggregated in atomics, and any worker tripping a limit
    sets [stop] for everyone.

    Containment matches the sequential loop: a per-path exception degrades
    that path and the worker moves on; only an injected kill (or OOM /
    stack overflow) stops the whole run, and it is re-raised after the
    join so it behaves like process death to the caller. *)
let run_parallel config (workers : worker list) init_states deadline
    input_vars =
  let mutex = Mutex.create () in
  let wakeup = Condition.create () in
  let frontier = Queue.create () in
  let active = ref 0 in
  let stop = Atomic.make false in
  (* worker 0's counters hold a resumed snapshot's paths *)
  let paths =
    Atomic.make (List.hd workers).gctx.Executor.counters.Counters.paths
  in
  let insts = Atomic.make 0 in
  List.iter (fun st -> Queue.add st frontier) init_states;
  let halt () =
    Atomic.set stop true;
    Mutex.lock mutex;
    Condition.broadcast wakeup;
    Mutex.unlock mutex
  in
  let out_of_budget () =
    Atomic.get paths >= config.max_paths
    || Atomic.get insts >= config.max_insts
    || Unix.gettimeofday () > deadline
  in
  let worker_loop (w : worker) =
    let gctx = w.gctx in
    (* instruction counts are flushed to the shared atomic in batches so the
       global budget is enforced without per-step contention *)
    let flushed = ref 0 in
    let flush_insts () =
      let n = gctx.Executor.counters.Counters.instructions in
      if n > !flushed then begin
        ignore (Atomic.fetch_and_add insts (n - !flushed));
        flushed := n
      end
    in
    let check_counter = ref 0 in
    let pop () =
      Mutex.lock mutex;
      let rec go () =
        if Atomic.get stop then None
        else
          match Queue.take_opt frontier with
          | Some st ->
              incr active;
              Some st
          | None ->
              if !active = 0 then begin
                (* global quiescence: every path fully explored *)
                Condition.broadcast wakeup;
                None
              end
              else begin
                Condition.wait wakeup mutex;
                go ()
              end
      in
      let r = go () in
      Mutex.unlock mutex;
      r
    in
    let publish sts =
      if sts <> [] then begin
        Mutex.lock mutex;
        List.iter (fun st -> Queue.add st frontier) sts;
        Condition.broadcast wakeup;
        Mutex.unlock mutex
      end
    in
    let retire () =
      Mutex.lock mutex;
      decr active;
      if !active = 0 && Queue.is_empty frontier then Condition.broadcast wakeup;
      Mutex.unlock mutex
    in
    let rec advance st =
      incr check_counter;
      if !check_counter land 255 = 0 then begin
        flush_insts ();
        if Atomic.get stop then raise Halt;
        Cancel.check config.cancel;
        if out_of_budget () then begin
          halt ();
          raise Halt
        end
      end;
      match Executor.step gctx st with
      | [ Executor.T_cont st' ] -> advance st'
      | transitions ->
          let conts = ref [] in
          List.iter
            (fun tr ->
              match tr with
              | Executor.T_cont st' -> conts := st' :: !conts
              | Executor.T_exit (st', code) ->
                  ignore (Atomic.fetch_and_add paths 1);
                  record_exit w input_vars st' code;
                  if out_of_budget () then begin
                    halt ();
                    raise Halt
                  end
              | Executor.T_drop (st', reason) -> record_drop w st' reason
              | Executor.T_bug (st', kind) -> record_bug w input_vars st' kind)
            transitions;
          (* continue with the first fork child; share the rest *)
          (match List.rev !conts with
          | [] -> ()
          | first :: rest ->
              publish rest;
              advance first)
    in
    let rec work () =
      match pop () with
      | None -> ()
      | Some st ->
          (try advance st with
          | Halt -> ()
          | Cancel.Cancelled _ ->
              (* the global degrade entry after the join carries the
                 reason; here just stop everyone *)
              halt ()
          | Solver.Timeout -> degrade w "solver_timeout" "solver query gave up" 1
          | Executor.Symex_error msg -> record_error w msg
          | Fault.Crash msg -> degrade w "worker_crash" msg 1
          | Fault.Killed msg ->
              w.killed <- Some msg;
              halt ()
          | (Out_of_memory | Stack_overflow) as e ->
              w.killed <- Some (Printexc.to_string e);
              halt ()
          | e -> degrade w "worker_crash" (Printexc.to_string e) 1);
          flush_insts ();
          retire ();
          work ()
    in
    work ()
  in
  let spawned =
    List.map (fun w -> Domain.spawn (fun () -> worker_loop w)) (List.tl workers)
  in
  worker_loop (List.hd workers);
  List.iter Domain.join spawned;
  if Atomic.get stop && not (List.exists (fun w -> w.killed <> None) workers)
  then begin
    let kind, where =
      match config.cancel with
      | Some c when Cancel.cancelled c -> ("deadline_exceeded", Cancel.reason c)
      | _ ->
          ( (if Atomic.get paths >= config.max_paths then "path_budget"
             else if Atomic.get insts >= config.max_insts then "inst_budget"
             else "wall_clock"),
            "exploration budget" )
    in
    degrade (List.hd workers) kind where (Queue.length frontier)
  end

(* ---------------- driver ---------------- *)

let run ?(config = default_config) (m : Ir.modul) : result =
  (* each run is self-contained: drop hash-consed terms; solver caches are
     per-worker and freshly created below *)
  Bv.reset ();
  let t_start = Unix.gettimeofday () in
  let deadline = t_start +. config.timeout in
  (* request tracing: one engine child under the caller's span, opened
     here so every sub-span (summary build, workers, solver queries)
     nests inside its interval *)
  let eng_span =
    Option.map (fun parent -> Obs.Span.start ~parent "engine.run") config.span
  in
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
            ret_dst = None;
            frame_objs = [];
          };
        ];
      mem = !mem;
      path = [];
      model = [];
      out_rev = [];
      steps = 0;
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
    lazy
      (Checkpoint.fingerprint m ~input_size:config.input_size
         ~check_bounds:config.check_bounds)
  in
  let snapshot =
    if config.resume then
      Option.bind config.checkpoint_dir (fun dir ->
          Checkpoint.load ~dir ~digest:(Lazy.force ck_digest))
    else None
  in
  (* one persistent store for the whole run, shared by every worker (it
     locks internally).  A caller-provided store ([config.store]) is
     borrowed — its owner decides when to save; a store we load ourselves
     from [cache_dir] is saved after the join as before. *)
  let own_store =
    match config.store with
    | Some _ -> None
    | None ->
        Option.map
          (fun dir -> Overify_solver.Store.load ?faults:config.faults ~dir ())
          config.cache_dir
  in
  let store =
    match config.store with Some _ as s -> s | None -> own_store
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
        ?hist:(Option.map (fun p -> p.Obs.Profile.qhist) prof)
        ?span:wspan ?cache:config.solver_cache ?store ?faults:config.faults ()
    in
    let gctx =
      {
        Executor.modul = m;
        block_tbls = Hashtbl.create 16;
        globals;
        input_vars;
        check_bounds = config.check_bounds;
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
        try Summarize.build ~gctx:w0.gctx ~store m
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
        c.Counters.paths <- s.Checkpoint.ck_paths;
        c.Counters.instructions <- s.Checkpoint.ck_insts;
        c.Counters.forks <- s.Checkpoint.ck_forks;
        w0.degs <- s.Checkpoint.ck_degs;
        s.Checkpoint.ck_frontier
  in
  let ckpt =
    match (config.searcher, config.checkpoint_dir) with
    | (`Dfs | `Bfs), Some dir ->
        Some
          {
            ck_dir = dir;
            ck_dig = Lazy.force ck_digest;
            ck_every = max 1 config.checkpoint_every;
            ck_at = (List.hd workers).gctx.Executor.counters.Counters.paths;
          }
    | _ -> None
  in
  (match config.searcher with
  | `Dfs | `Bfs ->
      run_sequential config (List.hd workers) init_states deadline input_vars
        ~ckpt
  | `Parallel _ -> run_parallel config workers init_states deadline input_vars);
  (* an injected kill simulates process death: nothing below (merge,
     store save, counters) may run, exactly as if we had been SIGKILLed *)
  List.iter
    (fun w ->
      match w.killed with Some msg -> raise (Fault.Killed msg) | None -> ())
    workers;
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
  (* persist whatever this run contributed to the cross-run store (only
     if we opened it — a borrowed [config.store] is saved by its owner) *)
  (match own_store with
  | Some st -> Overify_solver.Store.save st
  | None -> ());
  (* the run's costs through the metric registry (single-threaded here,
     after the join, so no cross-domain races on the cells); solver time
     is a timer, every other counter an integer *)
  if Obs.enabled () then begin
    List.iter
      (fun (name, v) ->
        match "engine." ^ name with
        | "engine.solver_time" as name ->
            Obs.Registry.add_time (Obs.Registry.timer name) v
        | name ->
            if v > 0.0 then
              Obs.Registry.add (Obs.Registry.counter name) (int_of_float v))
      (Counters.to_list total
      @ [ ("summary_computed", float_of_int summary_computed);
          ("summary_cached", float_of_int summary_cached) ]);
    List.iter
      (fun d ->
        Obs.Registry.add
          (Obs.Registry.counter ~labels:[ ("kind", d.d_kind) ]
             "engine.degradations")
          (max 1 d.d_paths))
      degradations;
    List.iter
      (fun (k, n) ->
        if n > 0 then
          Obs.Registry.add
            (Obs.Registry.counter ~labels:[ ("kind", k) ] "fault.injected")
            n)
      faults_injected
  end;
  let profile =
    if not config.profile then None
    else begin
      let merged = Obs.Profile.create () in
      List.iter
        (fun w ->
          match w.gctx.Executor.prof with
          | Some p -> Obs.Profile.merge_into merged p
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
  if Obs.Trace.enabled () then
    Obs.Trace.emit ~cat:"symex" ~name:"engine.run"
      ~args:
        [
          ("searcher",
           match config.searcher with
           | `Dfs -> "dfs"
           | `Bfs -> "bfs"
           | `Parallel j -> Printf.sprintf "parallel:%d" j);
          ("paths", string_of_int total.Counters.paths);
          ("complete", string_of_bool complete);
        ]
      ~ts:t_start ~dur:time ();
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
      (let reach = Hashtbl.create 16 in
       let rec visit name =
         if not (Hashtbl.mem reach name) then begin
           Hashtbl.replace reach name ();
           match Ir.find_func m name with
           | Some fn ->
               List.iter visit (Overify_ir.Callgraph.callees m fn)
           | None -> ()
         end
       in
       visit "main";
       List.fold_left
         (fun acc (f : Ir.func) ->
           if Hashtbl.mem reach f.Ir.fname then acc + Ir.num_blocks f else acc)
         0 m.Ir.funcs);
    jobs = njobs;
    profile;
  }

(* ---------------- structured JSON ---------------- *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

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
              (json_escape d.d_kind) (json_escape d.d_where) d.d_paths)
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
              (json_escape b.kind) (json_escape b.at_function)
              (json_escape b.input))
          r.bugs));
  add "}";
  Buffer.contents buf
