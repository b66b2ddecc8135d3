(** The verification profile: where did verification time go?

    Combines the three observability sources into one attribution report
    (EXPERIMENTS.md, "Profiling a verification run"):

    - the engine's per-(function, block) cost attribution
      ([Engine.result.profile]): dynamic instructions, forks, solver
      queries/cache hits/time, path completions;
    - the per-pass compile profile ([Pipeline.optimize ~prof]): wall time
      and code-size delta per pass application;
    - the solver's per-query latency histogram.

    Functions are ranked by solver time's deterministic proxies (queries,
    then instructions) so two runs of the same program produce the same
    table — wall-clock only breaks ties in the human-readable rendering,
    never the row order.  Reports are diffable across optimization levels:
    {!print_diff} shows exactly which hot-spot a level removed. *)

module Ir = Overify_ir.Ir
module Costmodel = Overify_opt.Costmodel
module Pipeline = Overify_opt.Pipeline
module Engine = Overify_symex.Engine
module Obs = Overify_obs.Obs
module Counters = Obs.Counters

type func_row = {
  fr_fn : string;
  fr_cost : Counters.t;  (** the sum of the function's block sites *)
  fr_blocks : (int * Counters.t) list;  (** ascending block id *)
}

type t = {
  program : string;
  level : string;
  input_size : int;
  result : Engine.result;
  funcs : func_row list;
      (** ranked: queries desc, instructions desc, name asc — all
          deterministic keys *)
  passes : Obs.Pass.app list;        (** application order *)
  pass_rollup : Obs.Pass.rollup list;
  t_compile : float;
}

(* ---------------- building ---------------- *)

(* queries, then instructions, both descending — deterministic keys *)
let by_cost (a : Counters.t) (b : Counters.t) =
  compare (b.Counters.queries, b.Counters.instructions)
    (a.Counters.queries, a.Counters.instructions)

let func_rows (p : Obs.Profile.t) : func_row list =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun ((fn, block), s) ->
      let blocks = Option.value ~default:[] (Hashtbl.find_opt tbl fn) in
      Hashtbl.replace tbl fn ((block, s) :: blocks))
    (Obs.Profile.sites p);
  Hashtbl.fold
    (fun fn blocks acc ->
      let fr_blocks = List.sort (fun (a, _) (b, _) -> compare a b) blocks in
      { fr_fn = fn; fr_cost = Counters.sum (List.map snd fr_blocks); fr_blocks }
      :: acc)
    tbl []
  |> List.sort (fun a b ->
         match by_cost a.fr_cost b.fr_cost with
         | 0 -> compare a.fr_fn b.fr_fn
         | c -> c)

(** Build the report for an already-profiled run.  [result.profile] must be
    present (run the engine with [config.profile = true]). *)
let of_result ~program ~level ~input_size ?(passes = Obs.Pass.create ())
    ?(t_compile = 0.0) (result : Engine.result) : t =
  let prof =
    match result.Engine.profile with
    | Some p -> p
    | None -> invalid_arg "Profile.of_result: engine run was not profiled"
  in
  {
    program;
    level;
    input_size;
    result;
    funcs = func_rows prof;
    passes = Obs.Pass.apps passes;
    pass_rollup = Obs.Pass.rollup passes;
    t_compile;
  }

(** Compile [source] at [level] (with the per-pass profile) and
    symbolically execute it under [config] with attribution on. *)
let profile ?(program = "<source>") ~(level : Costmodel.t) ?link_libc
    ~(config : Engine.config) (source : string) : t =
  let passes = Obs.Pass.create () in
  let t0 = Unix.gettimeofday () in
  let r =
    Pipeline.optimize ~prof:passes level
      (Overify_vclib.Vclib.frontend ?link_libc level source)
  in
  let t_compile = Unix.gettimeofday () -. t0 in
  let result =
    Engine.run ~config:{ config with Engine.profile = true } r.Pipeline.modul
  in
  of_result ~program ~level:level.Costmodel.name
    ~input_size:config.Engine.input_size ~passes ~t_compile result

(* ---------------- rendering ---------------- *)

let pct part total = if total <= 0.0 then 0.0 else 100.0 *. part /. total

let site_label fn block = Printf.sprintf "%s:L%d" fn block

(** Hottest (function, block) sites, ranked like functions (queries, then
    instructions — deterministic). *)
let hot_blocks ?(top = 8) t =
  List.concat_map
    (fun r -> List.map (fun (b, s) -> (r.fr_fn, b, s)) r.fr_blocks)
    t.funcs
  |> List.sort (fun (fa, ba, a) (fb, bb, b) ->
         match by_cost a b with 0 -> compare (fa, ba) (fb, bb) | c -> c)
  |> List.filteri (fun i _ -> i < top)

let print ?(top = 8) ?(out = stdout) t =
  let r = t.result in
  Printf.fprintf out
    "== verification profile: %s @ %s (n=%d symbolic bytes) ==\n" t.program
    t.level t.input_size;
  Printf.fprintf out
    "totals: paths=%d instructions=%s forks=%d queries=%d cache_hits=%d \
     solver=%sms wall=%sms compile=%sms complete=%b jobs=%d\n"
    r.Engine.paths
    (Report.fmt_int r.Engine.instructions)
    r.Engine.forks r.Engine.queries r.Engine.cache_hits
    (Report.ms r.Engine.solver_time)
    (Report.ms r.Engine.time) (Report.ms t.t_compile) r.Engine.complete
    r.Engine.jobs;
  Printf.fprintf out
    "solver: components=%d solves=%d hits: canon=%d store=%d\n\n"
    r.Engine.components r.Engine.component_solves r.Engine.hits_canon
    r.Engine.hits_store;
  if
    r.Engine.summary_instantiated + r.Engine.summary_opaque
    + r.Engine.summary_computed + r.Engine.summary_cached
    > 0
  then
    Printf.fprintf out
      "summaries: instantiated=%d opaque=%d computed=%d cached=%d\n"
      r.Engine.summary_instantiated r.Engine.summary_opaque
      r.Engine.summary_computed r.Engine.summary_cached;
  List.iter
    (fun (d : Engine.degradation) ->
      Printf.fprintf out "degraded: %s paths=%d%s\n" d.Engine.d_kind
        d.Engine.d_paths
        (if d.Engine.d_where = "" then "" else " (" ^ d.Engine.d_where ^ ")"))
    r.Engine.degradations;
  let with_summaries =
    List.exists
      (fun f ->
        f.fr_cost.Counters.summary_instantiated
        + f.fr_cost.Counters.summary_opaque
        > 0)
      t.funcs
  in
  let rows =
    ([
       "function"; "insts"; "forks"; "queries"; "hits"; "solver (ms)";
       "solver %"; "paths"; "blocks";
     ]
    @ (if with_summaries then [ "sum hits"; "sum opq" ] else []))
    :: List.map
         (fun f ->
           let c = f.fr_cost in
           [
             f.fr_fn;
             Report.fmt_int c.Counters.instructions;
             string_of_int c.Counters.forks;
             string_of_int c.Counters.queries;
             string_of_int c.Counters.cache_hits;
             Report.ms c.Counters.solver_time;
             Printf.sprintf "%.1f"
               (pct c.Counters.solver_time r.Engine.solver_time);
             string_of_int c.Counters.paths;
             string_of_int (List.length f.fr_blocks);
           ]
           @
           if with_summaries then
             [ string_of_int c.Counters.summary_instantiated;
               string_of_int c.Counters.summary_opaque ]
           else [])
         t.funcs
  in
  Report.table ~out rows;
  (match hot_blocks ~top t with
  | [] -> ()
  | hot ->
      Printf.fprintf out "\nhottest blocks (by queries, then instructions):\n";
      Report.table ~out
        ([ "site"; "insts"; "forks"; "queries"; "solver (ms)" ]
        :: List.map
             (fun (fn, b, (s : Counters.t)) ->
               [
                 site_label fn b;
                 Report.fmt_int s.Counters.instructions;
                 string_of_int s.Counters.forks;
                 string_of_int s.Counters.queries;
                 Report.ms s.Counters.solver_time;
               ])
             hot));
  (match t.pass_rollup with
  | [] -> ()
  | rollup ->
      Printf.fprintf out "\ncompile profile (per pass):\n";
      Report.table ~out
        ([ "pass"; "apps"; "changed"; "time (ms)"; "Δsize" ]
        :: List.map
             (fun (p : Obs.Pass.rollup) ->
               [
                 p.Obs.Pass.pr_pass;
                 string_of_int p.Obs.Pass.pr_apps;
                 string_of_int p.Obs.Pass.pr_changed;
                 Report.ms p.Obs.Pass.pr_time;
                 (if p.Obs.Pass.pr_dsize > 0 then "+" else "")
                 ^ string_of_int p.Obs.Pass.pr_dsize;
               ])
             rollup));
  (match r.Engine.profile with
  | Some p when (Obs.Profile.qhist p).Obs.Hist.count > 0 ->
      let h = Obs.Profile.qhist p in
      Printf.fprintf out
        "\nsolver latency: %d real solves, mean=%.3fms p50=%.3fms \
         p90=%.3fms max=%.3fms\n"
        h.Obs.Hist.count
        (Obs.Hist.mean h *. 1000.)
        (Obs.Hist.percentile h 0.5 *. 1000.)
        (Obs.Hist.percentile h 0.9 *. 1000.)
        (h.Obs.Hist.max *. 1000.)
  | _ -> ())

(* ---------------- diff across levels ---------------- *)

(** Side-by-side per-function comparison of two profiles of the same
    program at different levels: which hot-spot did the level remove? *)
let print_diff ?(out = stdout) (a : t) (b : t) =
  Printf.fprintf out
    "== verification profile diff: %s @ %s vs %s (n=%d bytes) ==\n" a.program
    a.level b.level a.input_size;
  let ra = a.result and rb = b.result in
  Report.table ~out
    [
      [ "totals"; a.level; b.level; "Δ" ];
      [
        "paths";
        string_of_int ra.Engine.paths;
        string_of_int rb.Engine.paths;
        Printf.sprintf "%+d" (rb.Engine.paths - ra.Engine.paths);
      ];
      [
        "instructions";
        Report.fmt_int ra.Engine.instructions;
        Report.fmt_int rb.Engine.instructions;
        Printf.sprintf "%+d" (rb.Engine.instructions - ra.Engine.instructions);
      ];
      [
        "forks";
        string_of_int ra.Engine.forks;
        string_of_int rb.Engine.forks;
        Printf.sprintf "%+d" (rb.Engine.forks - ra.Engine.forks);
      ];
      [
        "queries";
        string_of_int ra.Engine.queries;
        string_of_int rb.Engine.queries;
        Printf.sprintf "%+d" (rb.Engine.queries - ra.Engine.queries);
      ];
      [
        "solver (ms)";
        Report.ms ra.Engine.solver_time;
        Report.ms rb.Engine.solver_time;
        Printf.sprintf "%+.1f"
          ((rb.Engine.solver_time -. ra.Engine.solver_time) *. 1000.);
      ];
      [
        "wall (ms)";
        Report.ms ra.Engine.time;
        Report.ms rb.Engine.time;
        Printf.sprintf "%+.1f" ((rb.Engine.time -. ra.Engine.time) *. 1000.);
      ];
    ];
  Printf.fprintf out "\n";
  (* union of function names; a function absent on one side reads as 0 —
     inlining at one level legitimately removes functions *)
  let find rows fn = List.find_opt (fun r -> r.fr_fn = fn) rows in
  let names =
    List.sort_uniq compare
      (List.map (fun r -> r.fr_fn) a.funcs
      @ List.map (fun r -> r.fr_fn) b.funcs)
  in
  let cost rows fn =
    match find rows fn with Some r -> r.fr_cost | None -> Counters.create ()
  in
  let key fn =
    let ca = cost a.funcs fn and cb = cost b.funcs fn in
    ( max ca.Counters.queries cb.Counters.queries,
      max ca.Counters.instructions cb.Counters.instructions )
  in
  let names =
    List.sort
      (fun x y ->
        match compare (key y) (key x) with 0 -> compare x y | c -> c)
      names
  in
  Report.table ~out
    ([
       "function";
       "insts " ^ a.level; "insts " ^ b.level;
       "forks " ^ a.level; "forks " ^ b.level;
       "queries " ^ a.level; "queries " ^ b.level;
       "solver Δ (ms)";
     ]
    :: List.map
         (fun fn ->
           let ca = cost a.funcs fn and cb = cost b.funcs fn in
           [
             fn;
             Report.fmt_int ca.Counters.instructions;
             Report.fmt_int cb.Counters.instructions;
             string_of_int ca.Counters.forks;
             string_of_int cb.Counters.forks;
             string_of_int ca.Counters.queries;
             string_of_int cb.Counters.queries;
             Printf.sprintf "%+.1f"
               ((cb.Counters.solver_time -. ca.Counters.solver_time) *. 1000.);
           ])
         names)

(* ---------------- JSON ---------------- *)

(** Machine-readable report.  [times:false] (for golden/determinism tests
    and cross-run diffing) zeroes every wall-clock field and omits the
    latency histogram, leaving only deterministic attribution: two runs of
    the same program produce byte-identical documents. *)
let to_json ?(times = true) (t : t) : string =
  let r = t.result in
  let ms x = if times then Printf.sprintf "%.3f" (x *. 1000.) else "0.000" in
  let cost_json (c : Counters.t) =
    Printf.sprintf
      {|"instructions": %d, "forks": %d, "queries": %d, "cache_hits": %d, "solver_time_ms": %s, "paths": %d, "summary_hits": %d, "summary_opaque": %d|}
      c.Counters.instructions c.Counters.forks c.Counters.queries
      c.Counters.cache_hits (ms c.Counters.solver_time) c.Counters.paths
      c.Counters.summary_instantiated c.Counters.summary_opaque
  in
  let block_json (blk, c) =
    Printf.sprintf {|{"block": %d, %s}|} blk (cost_json c)
  in
  let func_json f =
    Printf.sprintf {|    {"fn": "%s", %s, "blocks": [%s]}|}
      (Obs.json_escape f.fr_fn) (cost_json f.fr_cost)
      (String.concat ", " (List.map block_json f.fr_blocks))
  in
  let pass_json (p : Obs.Pass.rollup) =
    Printf.sprintf
      {|    {"pass": "%s", "applications": %d, "changed": %d, "time_ms": %s, "size_delta": %d}|}
      (Obs.json_escape p.Obs.Pass.pr_pass)
      p.Obs.Pass.pr_apps p.Obs.Pass.pr_changed
      (ms p.Obs.Pass.pr_time)
      p.Obs.Pass.pr_dsize
  in
  let latency =
    match r.Engine.profile with
    | Some p when times ->
        let h = Obs.Profile.qhist p in
        Printf.sprintf
          ",\n  \"query_latency\": {\"count\": %d, \"mean_ms\": %.3f, \
           \"p50_ms\": %.3f, \"p90_ms\": %.3f, \"max_ms\": %.3f}"
          h.Obs.Hist.count
          (Obs.Hist.mean h *. 1000.)
          (Obs.Hist.percentile h 0.5 *. 1000.)
          (Obs.Hist.percentile h 0.9 *. 1000.)
          (h.Obs.Hist.max *. 1000.)
    | _ -> ""
  in
  let degradation_json (d : Engine.degradation) =
    Printf.sprintf {|{"kind": "%s", "where": "%s", "paths": %d}|}
      (Obs.json_escape d.Engine.d_kind)
      (Obs.json_escape d.Engine.d_where)
      d.Engine.d_paths
  in
  Printf.sprintf
    {|{
  "program": "%s",
  "level": "%s",
  "input_size": %d,
  "totals": {"paths": %d, "instructions": %d, "forks": %d, "queries": %d, "cache_hits": %d, "components": %d, "component_solves": %d, "hits_canon": %d, "hits_store": %d, "summary_instantiated": %d, "summary_opaque": %d, "summary_computed": %d, "summary_cached": %d, "solver_time_ms": %s, "time_ms": %s, "compile_ms": %s, "complete": %b, "jobs": %d},
  "degradations": [%s],
  "functions": [
%s
  ],
  "passes": [
%s
  ]%s
}|}
    (Obs.json_escape t.program) (Obs.json_escape t.level) t.input_size
    r.Engine.paths
    r.Engine.instructions r.Engine.forks r.Engine.queries r.Engine.cache_hits
    r.Engine.components r.Engine.component_solves r.Engine.hits_canon
    r.Engine.hits_store r.Engine.summary_instantiated
    r.Engine.summary_opaque r.Engine.summary_computed r.Engine.summary_cached
    (ms r.Engine.solver_time) (ms r.Engine.time) (ms t.t_compile)
    r.Engine.complete r.Engine.jobs
    (String.concat ", " (List.map degradation_json r.Engine.degradations))
    (String.concat ",\n" (List.map func_json t.funcs))
    (String.concat ",\n" (List.map pass_json t.pass_rollup))
    latency
