(** Public facade of the -OVERIFY reproduction.

    Typical use:
    {[
      let m = Overify.compile ~level:Overify.Costmodel.overify src in
      let report =
        Overify.Engine.run
          ~config:{ Overify.Engine.default_config with input_size = 6 }
          m
      in
      Printf.printf "%d paths\n" report.Overify.Engine.paths
    ]} *)

module Ir = Overify_ir.Ir
module Printer = Overify_ir.Printer
module Verify_ir = Overify_ir.Verify
module Frontend = Overify_minic.Frontend
module Costmodel = Overify_opt.Costmodel
module Pipeline = Overify_opt.Pipeline
module Opt_stats = Overify_opt.Stats
module Engine = Overify_symex.Engine
module Interp = Overify_interp.Interp
module Vclib = Overify_vclib.Vclib
module Tv = Overify_tv.Tv
module Tv_product = Overify_tv.Product
module Programs = Overify_corpus.Programs
module Workload = Overify_corpus.Workload
module Obs = Overify_obs.Obs
module Fault = Overify_fault.Fault
module Checkpoint = Overify_symex.Checkpoint
module Interval = Overify_absint.Interval
module Absint = Overify_absint.Analysis
module Precision = Overify_absint.Precision
module Store = Overify_solver.Store
module Summary = Overify_summary.Summary
module Serve = Overify_serve.Serve
module Serve_client = Overify_serve.Client
module Serve_protocol = Overify_serve.Protocol
module Serve_json = Overify_serve.Json
module Serve_flight = Overify_serve.Flight
module Serve_log = Overify_serve.Log

(** Compile MiniC source at an optimization level.  [link_libc] (default
    true) links the libc variant the level selects, like the paper's build
    chain does. *)
let compile ?(level = Costmodel.overify) ?link_libc (src : string) : Ir.modul =
  (Pipeline.optimize level (Vclib.frontend ?link_libc level src)).Pipeline.modul
