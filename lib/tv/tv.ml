(** Translation validation of optimization passes: see tv.mli. *)

module Ir = Overify_ir.Ir
module Pipeline = Overify_opt.Pipeline
module Costmodel = Overify_opt.Costmodel
module Engine = Overify_symex.Engine
module Interp = Overify_interp.Interp
module Obs = Overify_obs.Obs
module Cancel = Overify_fault.Cancel

let default_config =
  {
    Engine.default_config with
    Engine.input_size = 3;
    max_paths = 400;
    max_insts = 2_000_000;
    timeout = 3.0;
    searcher = `Dfs;
  }

(** Pseudo-random inputs the differential fallback adds to the partial
    exploration's witnesses. *)
let fallback_runs = 32

(** Interpreter instruction budget per concrete run. *)
let fuel = 2_000_000

type behavior = {
  exit_code : int64;
  output : string;
  trap : string option;
}

type witness = {
  input : string;
  pre_behavior : behavior;
  post_behavior : behavior;
  detail : string;
}

type proof_kind = Syntactic | Exhaustive

type verdict =
  | Proved of proof_kind
  | Counterexample of witness
  | Inconclusive of string

type outcome = {
  verdict : verdict;
  run : Engine.result option;
  time : float;
  excused_pre_traps : int;
  fallback_runs : int;
}

(** A counter of the product run, 0 when none ran. *)
let of_run f o = Option.fold ~none:0 ~some:f o.run

(* ---------------- concrete replay ---------------- *)

(** Pad a symbolic witness to the symbolic input size, so [__input_size]
    agrees between the symbolic run and the concrete replay. *)
let pad_input size s =
  if String.length s >= size then s else s ^ String.make (size - String.length s) '\000'

let behavior_of ~fuel (m : Ir.modul) ~input : behavior =
  let r = Interp.run ~fuel m ~input in
  {
    exit_code = r.Interp.exit_code;
    output = r.Interp.output;
    trap = Option.map Interp.string_of_trap r.Interp.trap;
  }

(** Deterministic pseudo-random inputs (xorshift64) for the differential
    fallback; no wall-clock or global RNG so checks are reproducible. *)
let pseudo_random_inputs ~count ~size : string list =
  let s = ref 0x9E3779B97F4A7C15L in
  let next () =
    let x = !s in
    let x = Int64.logxor x (Int64.shift_left x 13) in
    let x = Int64.logxor x (Int64.shift_right_logical x 7) in
    let x = Int64.logxor x (Int64.shift_left x 17) in
    s := x;
    x
  in
  List.init count (fun _ ->
      String.init size (fun _ -> Char.chr (Int64.to_int (Int64.logand (next ()) 0xFFL))))

(* ---------------- verdict classification ---------------- *)

let strip_meta (m : Ir.modul) =
  { m with Ir.funcs = List.map (fun f -> { f with Ir.fmeta = [] }) m.Ir.funcs }

let is_a_side f =
  String.length f >= 6 && String.sub f 0 6 = Product.a_prefix || f = Product.emit_a

let is_b_side f =
  String.length f >= 6 && String.sub f 0 6 = Product.b_prefix || f = Product.emit_b

let unprefix f =
  if String.length f >= 6 && (String.sub f 0 6 = Product.a_prefix || String.sub f 0 6 = Product.b_prefix)
  then String.sub f 6 (String.length f - 6)
  else f

(** Build the witness record for a refuting input by replaying both
    versions through the concrete interpreter. *)
let make_witness ~input_size ~pre ~post ~(bug : Engine.bug) : witness =
  let input = pad_input input_size bug.Engine.input in
  let fuel = max fuel 10_000_000 in
  let pre_behavior = behavior_of ~fuel pre ~input in
  let post_behavior = behavior_of ~fuel post ~input in
  let detail =
    if is_b_side bug.Engine.at_function then
      Printf.sprintf "introduced trap: %s in %s" bug.Engine.kind
        (unprefix bug.Engine.at_function)
    else if pre_behavior.exit_code <> post_behavior.exit_code then
      Printf.sprintf "exit code differs: %Ld vs %Ld" pre_behavior.exit_code
        post_behavior.exit_code
    else if pre_behavior.output <> post_behavior.output then "output trace differs"
    else "product assertion failed: " ^ bug.Engine.kind
  in
  { input; pre_behavior; post_behavior; detail }

(** Differential fallback when the symbolic budget runs out: replay the
    partial exploration's concrete path witnesses plus deterministic
    pseudo-random inputs through both versions. *)
let differential_fallback ~input_size ~pre ~post (r : Engine.result) :
    (witness, int) Either.t =
  let from_paths =
    List.map (fun (w, _) -> w) r.Engine.exit_codes
    @ List.map (fun (b : Engine.bug) -> b.Engine.input) r.Engine.bugs
  in
  let inputs =
    List.map (pad_input input_size) from_paths
    @ pseudo_random_inputs ~count:fallback_runs ~size:input_size
  in
  (* dedupe, keep order, bound the total work *)
  let seen = Hashtbl.create 16 in
  let inputs =
    List.filter
      (fun i ->
        if Hashtbl.mem seen i then false
        else (Hashtbl.add seen i (); true))
      inputs
  in
  let inputs = List.filteri (fun i _ -> i < fallback_runs + 8) inputs in
  let ce = ref None in
  let runs = ref 0 in
  List.iter
    (fun input ->
      if !ce = None then begin
        incr runs;
        let bp = behavior_of ~fuel pre ~input in
        match bp.trap with
        | Some t when t = Interp.string_of_trap Interp.Out_of_fuel -> ()
        | Some _ -> () (* pre-version traps: excused *)
        | None -> (
            let bq = behavior_of ~fuel:(4 * fuel) post ~input in
            match bq.trap with
            | Some t when t = Interp.string_of_trap Interp.Out_of_fuel -> ()
            | Some t ->
                ce :=
                  Some
                    { input; pre_behavior = bp; post_behavior = bq;
                      detail = "introduced trap: " ^ t }
            | None ->
                if bp.exit_code <> bq.exit_code then
                  ce :=
                    Some
                      { input; pre_behavior = bp; post_behavior = bq;
                        detail =
                          Printf.sprintf "exit code differs: %Ld vs %Ld"
                            bp.exit_code bq.exit_code }
                else if bp.output <> bq.output then
                  ce :=
                    Some
                      { input; pre_behavior = bp; post_behavior = bq;
                        detail = "output trace differs" })
      end)
    inputs;
  match !ce with Some w -> Either.Left w | None -> Either.Right !runs

let check_modules ?(config = default_config) (pre : Ir.modul)
    (post : Ir.modul) : outcome =
  let t0 = Unix.gettimeofday () in
  let finish ?run ?(excused_pre_traps = 0) ?(fallback_runs = 0) verdict =
    {
      verdict;
      run;
      time = Unix.gettimeofday () -. t0;
      excused_pre_traps;
      fallback_runs;
    }
  in
  if strip_meta pre = strip_meta post then finish (Proved Syntactic)
  else
    match (Ir.find_func pre "main", Ir.find_func post "main") with
    | (None, _) | (_, None) -> finish (Inconclusive "module has no main")
    | (Some fm, _) when fm.Ir.params <> [] ->
        finish (Inconclusive "main takes parameters")
    | (Some _, Some _) ->
        let r = Engine.run ~config (Product.build ~pre ~post) in
        (* a cancelled run is no verdict: stop before the fallback *)
        Cancel.check config.Engine.cancel;
        let input_size = config.Engine.input_size in
        let mismatches =
          List.filter
            (fun (b : Engine.bug) ->
              (b.Engine.at_function = "main"
              && b.Engine.kind = "assertion failure")
              || is_b_side b.Engine.at_function)
            r.Engine.bugs
        in
        let excused =
          List.length
            (List.filter
               (fun (b : Engine.bug) -> is_a_side b.Engine.at_function)
               r.Engine.bugs)
        in
        let product_errors =
          List.filter
            (fun (b : Engine.bug) ->
              (not (is_a_side b.Engine.at_function))
              && (not (is_b_side b.Engine.at_function))
              && not
                   (b.Engine.at_function = "main"
                   && b.Engine.kind = "assertion failure"))
            r.Engine.bugs
        in
        let finish v = finish ~run:r ~excused_pre_traps:excused v in
        (match mismatches with
        | bug :: _ ->
            finish (Counterexample (make_witness ~input_size ~pre ~post ~bug))
        | [] ->
            if product_errors <> [] then
              let b = List.hd product_errors in
              finish
                (Inconclusive
                   (Printf.sprintf "product exploration error: %s at %s"
                      b.Engine.kind b.Engine.at_function))
            else if r.Engine.complete then finish (Proved Exhaustive)
            else
              (* budget exhausted: bounded differential interpretation *)
              let reason =
                Printf.sprintf
                  "symbolic budget exhausted (%d paths, %d/%d insts, %.1fs)"
                  r.Engine.paths r.Engine.instructions config.Engine.max_insts
                  config.Engine.timeout
              in
              (match differential_fallback ~input_size ~pre ~post r with
              | Either.Left w ->
                  {
                    (finish (Counterexample w)) with
                    fallback_runs = 1;
                  }
              | Either.Right runs ->
                  {
                    (finish
                       (Inconclusive
                          (Printf.sprintf "%s; %d differential runs agree"
                             reason runs)))
                    with
                    fallback_runs = runs;
                  }))

(* ---------------- whole-compilation validation ---------------- *)

type record = {
  pass : string;
  fn : string;
  outcome : outcome;
}

type report = {
  level : string;
  records : record list;
  time : float;
}

let verdict_name = function
  | Proved _ -> "proved"
  | Counterexample _ -> "counterexample"
  | Inconclusive _ -> "inconclusive"

(** Check one obligation under a ["tv:<pass>(<fn>)"] span (a child of
    [config.span], or a root while the trace sink collects).  The
    product's ["engine.run"] nests under it, and it closes with a counter
    named after the verdict plus paths, queries and fallback runs. *)
let check_obligation ~config ~pass ~fn before after =
  let span =
    Obs.Span.start_traced ?parent:config.Engine.span
      (Printf.sprintf "tv:%s(%s)" pass fn)
  in
  let o = check_modules ~config:{ config with Engine.span } before after in
  (match span with
  | Some sp ->
      Obs.Span.finish sp
        ~counters:
          [
            (verdict_name o.verdict, 1.0);
            ("paths", float_of_int (of_run (fun r -> r.Engine.paths) o));
            ("queries", float_of_int (of_run (fun r -> r.Engine.queries) o));
            ("fallback_runs", float_of_int o.fallback_runs);
          ]
  | None -> ());
  o

let validate ?(config = default_config) (cm : Costmodel.t) (m : Ir.modul) :
    Pipeline.result * report =
  let t0 = Unix.gettimeofday () in
  (* the obligations of one compilation ask many of the same component
     queries: without a store of the caller's, they share one in memory *)
  let config =
    match config.Engine.store with
    | Some _ -> config
    | None ->
        { config with
          Engine.store = Some (Overify_solver.Store.in_memory ()) }
  in
  let apps = ref [] in
  let observe ~pass ~fn ~before ~after =
    apps := (pass, fn, before, after) :: !apps
  in
  let res = Pipeline.optimize ~observe cm m in
  let records =
    List.rev_map
      (fun (pass, fn, before, after) ->
        Cancel.check config.Engine.cancel;
        { pass; fn; outcome = check_obligation ~config ~pass ~fn before after })
      !apps
  in
  (res, { level = cm.Costmodel.name; records; time = Unix.gettimeofday () -. t0 })

let is_ce r =
  match r.outcome.verdict with Counterexample _ -> true | _ -> false

let is_inconclusive r =
  match r.outcome.verdict with Inconclusive _ -> true | _ -> false

let first_offender report = List.find_opt is_ce report.records
let counterexamples report = List.filter is_ce report.records
let inconclusives report = List.filter is_inconclusive report.records

type pass_summary = {
  ps_pass : string;
  ps_applications : int;
  ps_proved : int;
  ps_refuted : int;
  ps_inconclusive : int;
  ps_queries : int;
  ps_time : float;
}

let summarize report : pass_summary list =
  let order = ref [] in
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun r ->
      let s =
        match Hashtbl.find_opt tbl r.pass with
        | Some s -> s
        | None ->
            let s =
              {
                ps_pass = r.pass;
                ps_applications = 0;
                ps_proved = 0;
                ps_refuted = 0;
                ps_inconclusive = 0;
                ps_queries = 0;
                ps_time = 0.0;
              }
            in
            order := r.pass :: !order;
            s
      in
      let s =
        {
          s with
          ps_applications = s.ps_applications + 1;
          ps_proved =
            (s.ps_proved
            + match r.outcome.verdict with Proved _ -> 1 | _ -> 0);
          ps_refuted = (s.ps_refuted + if is_ce r then 1 else 0);
          ps_inconclusive =
            (s.ps_inconclusive + if is_inconclusive r then 1 else 0);
          ps_queries =
            s.ps_queries + of_run (fun r -> r.Engine.queries) r.outcome;
          ps_time = s.ps_time +. r.outcome.time;
        }
      in
      Hashtbl.replace tbl r.pass s)
    report.records;
  List.rev_map (fun p -> Hashtbl.find tbl p) !order


let hex_of_string s =
  String.concat "" (List.map (Printf.sprintf "%02x") (List.init (String.length s) (fun i -> Char.code s.[i])))

let string_of_behavior b =
  match b.trap with
  | Some t -> Printf.sprintf "trap(%s)" t
  | None ->
      Printf.sprintf "exit=%Ld output=%s" b.exit_code (hex_of_string b.output)

let string_of_verdict = function
  | Proved Syntactic -> "proved (syntactic)"
  | Proved Exhaustive -> "proved (exhaustive symbolic exploration)"
  | Counterexample w ->
      Printf.sprintf "COUNTEREXAMPLE input=%s: %s [pre: %s] [post: %s]"
        (hex_of_string w.input) w.detail
        (string_of_behavior w.pre_behavior)
        (string_of_behavior w.post_behavior)
  | Inconclusive reason -> "inconclusive: " ^ reason

(* ---------------- JSON report ---------------- *)

let record_to_json r =
  let o = r.outcome in
  let extra =
    match o.verdict with
    | Proved k ->
        Printf.sprintf {|, "proof": "%s"|}
          (match k with Syntactic -> "syntactic" | Exhaustive -> "exhaustive")
    | Counterexample w ->
        Printf.sprintf {|, "input": "%s", "detail": "%s"|} (hex_of_string w.input)
          (Obs.json_escape w.detail)
    | Inconclusive reason ->
        Printf.sprintf {|, "reason": "%s"|} (Obs.json_escape reason)
  in
  Printf.sprintf
    {|    {"pass": "%s", "fn": "%s", "verdict": "%s"%s, "paths": %d, "queries": %d, "solver_time": %.3f, "time": %.3f, "excused_pre_traps": %d, "fallback_runs": %d}|}
    (Obs.json_escape r.pass) (Obs.json_escape r.fn)
    (verdict_name o.verdict)
    extra
    (of_run (fun r -> r.Engine.paths) o)
    (of_run (fun r -> r.Engine.queries) o)
    (Option.fold ~none:0.0 ~some:(fun r -> r.Engine.solver_time) o.run)
    o.time o.excused_pre_traps o.fallback_runs

let summary_to_json s =
  Printf.sprintf
    {|    {"pass": "%s", "applications": %d, "proved": %d, "counterexamples": %d, "inconclusive": %d, "queries": %d, "time": %.3f}|}
    (Obs.json_escape s.ps_pass) s.ps_applications s.ps_proved s.ps_refuted
    s.ps_inconclusive s.ps_queries s.ps_time

let report_to_json report =
  Printf.sprintf
    {|{
  "level": "%s",
  "applications": %d,
  "counterexamples": %d,
  "inconclusive": %d,
  "time": %.3f,
  "records": [
%s
  ],
  "per_pass": [
%s
  ]
}|}
    (Obs.json_escape report.level)
    (List.length report.records)
    (List.length (counterexamples report))
    (List.length (inconclusives report))
    report.time
    (String.concat ",\n" (List.map record_to_json report.records))
    (String.concat ",\n" (List.map summary_to_json (summarize report)))
