(** Shared experiment plumbing: compile a corpus program at a level (linking
    the level's libc variant), run the symbolic executor and/or the concrete
    interpreter, and collect everything the tables need. *)

module Ir = Overify_ir.Ir
module Costmodel = Overify_opt.Costmodel
module Pipeline = Overify_opt.Pipeline
module Engine = Overify_symex.Engine
module Interp = Overify_interp.Interp
module Programs = Overify_corpus.Programs
module Workload = Overify_corpus.Workload
module Vclib = Overify_vclib.Vclib

type compiled = {
  program : Programs.t;
  level : Costmodel.t;
  modul : Ir.modul;
  opt_stats : Overify_opt.Stats.t;
  t_compile : float;  (** seconds *)
  size : int;         (** static instruction count *)
}

(** Compile [program] at [level], linking the libc variant the level asks
    for. *)
let compile (level : Costmodel.t) (program : Programs.t) : compiled =
  let t0 = Unix.gettimeofday () in
  let m0 =
    Overify_minic.Frontend.compile_sources
      [ Vclib.for_cost_model level; program.Programs.source ]
  in
  let r = Pipeline.optimize level m0 in
  let t_compile = Unix.gettimeofday () -. t0 in
  {
    program;
    level;
    modul = r.Pipeline.modul;
    opt_stats = r.Pipeline.stats;
    t_compile;
    size =
      List.fold_left
        (fun acc f -> acc + Ir.func_size f)
        0 r.Pipeline.modul.Ir.funcs;
  }

(** Symbolically execute a compiled program.  [jobs > 1] explores on that
    many domains ([`Parallel jobs]); the default is the sequential DFS
    searcher.  [solver_cache] / [cache_dir] select the solver acceleration
    layers (see [Overify_solver.Solver]) — they never change the result.
    [summaries] selects compositional exploration via cached function
    summaries ([Engine.config.summaries]); verdicts are unchanged, only
    effort counters move.  [store] passes an already-open persistent store
    (the serve daemon's warm one) instead of loading from [cache_dir].
    [faults] / [checkpoint_dir] / [resume] are the hardening knobs (chaos
    schedules and kill/resume; see [Overify_fault.Fault] and
    [Engine.config]). *)
let verify ?(input_size = 4) ?(timeout = 30.0) ?(jobs = 1) ?summaries
    ?solver_cache ?cache_dir ?store ?faults ?checkpoint_dir
    ?(checkpoint_every = 64) ?(resume = false) ?span (c : compiled) :
    Engine.result =
  let searcher = if jobs > 1 then `Parallel jobs else `Dfs in
  let summaries =
    match summaries with
    | Some s -> s
    | None -> Engine.default_config.Engine.summaries
  in
  Engine.run
    ~config:
      {
        Engine.default_config with
        input_size;
        timeout;
        searcher;
        summaries;
        solver_cache;
        cache_dir;
        store;
        faults;
        checkpoint_dir;
        checkpoint_every;
        resume;
        span;
      }
    c.modul

(** Sequential-vs-parallel comparison of one compiled program: runs the same
    exploration with [`Dfs] and with [`Parallel jobs] and reports both
    results plus the wall-clock speedup.  Used by the parallel benchmark and
    recorded in experiment rows (worker count and speedup). *)
type parallel_measurement = {
  seq : Engine.result;
  par : Engine.result;
  jobs : int;
  speedup : float;          (** t_seq / t_par *)
  deterministic : bool;
      (** both runs complete and agree on paths, exit codes, bugs and
          coverage — the engine's determinism contract holding in practice *)
}

let measure_parallel ?(input_size = 4) ?(timeout = 30.0) ~jobs (c : compiled) :
    parallel_measurement =
  let seq = verify ~input_size ~timeout ~jobs:1 c in
  let par = verify ~input_size ~timeout ~jobs c in
  let deterministic =
    seq.Engine.complete && par.Engine.complete
    && seq.Engine.paths = par.Engine.paths
    && seq.Engine.exit_codes = par.Engine.exit_codes
    && seq.Engine.bugs = par.Engine.bugs
    && seq.Engine.blocks_covered = par.Engine.blocks_covered
  in
  let speedup =
    if par.Engine.time > 0.0 then seq.Engine.time /. par.Engine.time else 1.0
  in
  { seq; par; jobs; speedup; deterministic }

(** Concrete run on one input. *)
let run_concrete (c : compiled) ~input : Interp.result =
  Interp.run c.modul ~input

(** Average simulated cycles over a deterministic text workload. *)
let measure_cycles ?(runs = 16) ?(size = 14) (c : compiled) : float =
  let inputs = Workload.batch ~seed:42 ~size ~count:runs in
  let total =
    List.fold_left
      (fun acc input ->
        let r = run_concrete c ~input in
        acc + r.Interp.cycles)
      0 inputs
  in
  float_of_int total /. float_of_int runs

(** Wall time of interpreting the same workload (the paper's t_run). *)
let measure_run_time ?(runs = 16) ?(size = 14) (c : compiled) : float =
  let inputs = Workload.batch ~seed:42 ~size ~count:runs in
  let t0 = Unix.gettimeofday () in
  List.iter (fun input -> ignore (run_concrete c ~input)) inputs;
  (Unix.gettimeofday () -. t0) /. float_of_int runs
