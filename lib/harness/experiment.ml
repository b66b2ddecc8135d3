(** Shared experiment plumbing: compile a corpus program at a level (linking
    the level's libc variant) and run the concrete interpreter over a fixed
    workload, collecting what the tables need. *)

module Ir = Overify_ir.Ir
module Costmodel = Overify_opt.Costmodel
module Pipeline = Overify_opt.Pipeline
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
  let r =
    Pipeline.optimize level (Vclib.frontend level program.Programs.source)
  in
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

(** Average simulated cycles over a deterministic text workload. *)
let measure_cycles ?(runs = 16) ?(size = 14) (c : compiled) : float =
  let inputs = Workload.batch ~seed:42 ~size ~count:runs in
  let total =
    List.fold_left
      (fun acc input ->
        let r = Interp.run c.modul ~input in
        acc + r.Interp.cycles)
      0 inputs
  in
  float_of_int total /. float_of_int runs

(** Wall time of interpreting the same workload (the paper's t_run). *)
let measure_run_time ?(runs = 16) ?(size = 14) (c : compiled) : float =
  let inputs = Workload.batch ~seed:42 ~size ~count:runs in
  let t0 = Unix.gettimeofday () in
  List.iter (fun input -> ignore (Interp.run c.modul ~input)) inputs;
  (Unix.gettimeofday () -. t0) /. float_of_int runs
