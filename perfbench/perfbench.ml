(** The repository benchmark.

    {v
    perfbench.exe --workload W --seed N --seconds S --trace 0|1
    perfbench.exe --record        (rewrite perfbench/expected.tsv)
    v}

    Four workloads, each chosen so the time goes to a different layer:

    - [corpus-overify]: compile the whole corpus at -OVERIFY, verify each
      program at n=2 (except the solver-bound [cksum] and [factor]) and
      run each build concretely on generated inputs — compile-dominated;
    - [wc-deep]: [wc] at -O0, n=4 — executor stepping and the solver's
      canonical path;
    - [solve-bound]: [cksum] and [factor] at -O3, n=1 — fresh blast+SAT;
    - [serve-mix]: an in-process daemon driven by two closed-loop client
      connections over a generated compile/verify trace, against a store
      warmed by a different trace.

    A run sets up several times, then repeats timed passes over the
    workload's cells for [--seconds].  Between set-ups and between
    operations (cells, or parts of the replay) it times a fixed reference
    computation, and divides each time by the reference's time around it:
    [setup_s] is the median set-up and [verdict_s] the median over the
    untraced passes of a pass's operations, so divided, in seconds on a
    host where the reference takes {!nominal_reference_s} — the times with
    the host's speed of the moment divided out.  The raw times are
    printed too.  With [--trace 1] it alternates untraced and traced
    passes;
    a traced pass wraps every public layer call in an [Obs.Span], runs
    the engine with [profile] and [span], writes a Chrome trace, and
    reports the per-layer breakdown of the fastest traced pass.  Layers
    are timed from outside, around the calls this program makes into
    [Frontend], [Pipeline], [Engine], [Interp] and the serve client.

    Every verdict is checked against the committed record
    ([perfbench/expected.tsv]); witnesses are replayed through the
    interpreter; generated inputs are run on the -O0 build too.  The last
    stdout line is one JSON object; the exit code is 1 when any verdict is
    wrong. *)

open Overify
module Protocol = Serve_protocol
module Client = Serve_client
module Json = Serve_json

let now = Unix.gettimeofday
let out_dir = ".perfbench_out"
let expected_path = "perfbench/expected.tsv"

(* ---------------- small utilities ---------------- *)

let median xs =
  match List.sort compare xs with
  | [] -> 0.0
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(** Nearest-rank percentile. *)
let percentile q xs =
  match List.sort compare xs with
  | [] -> 0.0
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      a.(max 0 (min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1)))

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Sys.mkdir d 0o755 with Sys_error _ -> ()
  end

let rec rm_rf p =
  if Sys.file_exists p then
    if Sys.is_directory p then begin
      Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
      Sys.rmdir p
    end
    else Sys.remove p

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

(** Deterministic pseudo-random stream for trace generation. *)
let lcg seed =
  let state = ref ((seed * 2654435761) land 0x3fffffff) in
  fun bound ->
    state := ((!state * 1103515245) + 12345) land 0x3fffffff;
    (!state lsr 4) mod bound

let module_size (m : Ir.modul) =
  List.fold_left (fun acc f -> acc + Ir.func_size f) 0 m.Ir.funcs

(* ---------------- the host's speed ---------------- *)

(* On a shared virtual machine the host's speed can change by a third
   within seconds, in steps, and stay changed for minutes: no statistic
   over a run's wall times hides that.  So the benchmark times a fixed
   reference computation next to every operation and reports the
   operation's time divided by the reference's time around it. *)

let ref_table = Array.make (1 lsl 15) 0

(** The reference: scattered reads and writes over a 256 KiB table with
    branches and integer arithmetic.  It uses none of the library and
    allocates nothing, so neither a change to the program nor the state
    of its heap can change how long it takes. *)
let reference () =
  let mask = Array.length ref_table - 1 in
  let x = ref 12345 and acc = ref 0 in
  for _ = 1 to 800_000 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    let i = (!x lsr 3) land mask in
    let v = ref_table.(i) in
    ref_table.(i) <- v + 1;
    acc := if v land 1 = 0 then !acc + (v lxor !x) else !acc - (v lsr 1)
  done;
  !acc

(** (start, duration) of every reference timing, newest first. *)
let samples = ref []

(** The reference's duration on an idle 2-vCPU VM: times divided by the
    reference's duration around them are multiplied by this, so that they
    read as seconds on such a host. *)
let nominal_reference_s = 0.010

(** Time the reference once. *)
let calibrate () =
  (* bring the table back into the cache the program evicted it from,
     untimed *)
  Array.iteri (fun i v -> ref_table.(i) <- v land 0xffff) ref_table;
  let t0 = now () in
  ignore (Sys.opaque_identity (reference ()));
  samples := (t0, now () -. t0) :: !samples

(** Time the reference [n] times in a row. *)
let calibrate_n n = for _ = 1 to n do calibrate () done

(** Time the reference if [gap] seconds have passed since the last time;
    returns the time spent. *)
let calibrate_every gap =
  match !samples with
  | (t, d) :: _ when now () -. (t +. d) < gap -> 0.0
  | _ ->
      let t0 = now () in
      calibrate ();
      now () -. t0

(** The reference's duration around [t0, t1]: the mean of the median of
    its timings in the quarter second before [t0] and the median of those
    in the quarter second after [t1], or of the nearest timing on a side
    with none (a run times the reference before its first operation and
    after its last). *)
let reference_around (t0, t1) =
  let oldest_first = List.rev !samples in
  let side near nearest =
    match List.filter (fun (t, _) -> near t) oldest_first with
    | [] -> snd nearest
    | l -> median (List.map snd l)
  in
  let before =
    side (fun t -> t < t0 && t >= t0 -. 0.25)
      (List.fold_left (fun b (t, d) -> if t < t0 then (t, d) else b)
         (List.hd oldest_first) oldest_first)
  in
  let after =
    side (fun t -> t >= t1 && t <= t1 +. 0.25)
      (Option.value ~default:(List.hd !samples)
         (List.find_opt (fun (t, _) -> t >= t1) oldest_first))
  in
  (before +. after) /. 2.0

(** The sum over [ops], (start, end) intervals, of each one's duration
    divided by the reference's duration around it. *)
let normalized ops =
  List.fold_left (fun s iv -> s +. ((snd iv -. fst iv) /. reference_around iv)) 0.0 ops

(* ---------------- cells and generated inputs ---------------- *)

type cell = {
  prog : Programs.t;
  level : Costmodel.t;
  n : int;              (** symbolic input bytes *)
  verify : bool;
}

(** ["O0"], ["O3"], ["OVERIFY"]: the level as the protocol spells it. *)
let level_name (l : Costmodel.t) =
  let s = l.Costmodel.name in
  if String.length s > 0 && s.[0] = '-' then String.sub s 1 (String.length s - 1)
  else s

let cell_key c = Oracle.key ~prog:c.prog.Programs.name ~level:(level_name c.level) ~n:c.n

let program name =
  match Programs.find name with
  | Some p -> p
  | None -> failwith ("no corpus program " ^ name)

(** Verifying these two at n=2 takes ~11 s, nearly all of it fresh
    blast+SAT; they make up [solve-bound] and are only compiled and run
    elsewhere. *)
let solver_bound = [ "cksum"; "factor" ]

let corpus_cells () =
  List.map
    (fun p ->
      {
        prog = p;
        level = Costmodel.overify;
        n = 2;
        verify = not (List.mem p.Programs.name solver_bound);
      })
    Programs.programs

let wc_cells () = [ { prog = program "wc"; level = Costmodel.o0; n = 4; verify = true } ]

(** At n=1 both are still ~95-99% blast+SAT, in cells of 0.2-0.4 s
    rather than 5-6 s at n=2: a run gets dozens of samples of each, which
    is what keeps the fastest one steady on a noisy host. *)
let solve_cells () =
  List.map
    (fun name -> { prog = program name; level = Costmodel.o3; n = 1; verify = true })
    solver_bound

let serve_levels = [ Costmodel.o0; Costmodel.o3; Costmodel.overify ]

let serve_universe () =
  Programs.programs
  |> List.filter (fun p -> not (List.mem p.Programs.name solver_bound))
  |> List.concat_map (fun p ->
         List.concat_map
           (fun level ->
             List.map (fun n -> { prog = p; level; n; verify = true }) [ 2; 3 ])
           serve_levels)

let inputs_per_build = 4
let input_bytes = 256

(** The concrete inputs of one build: text from the run's seed, fixed size. *)
let gen_inputs ~seed prog level =
  let salt = Hashtbl.hash (prog.Programs.name, level.Costmodel.name) mod 100_003 in
  List.init inputs_per_build (fun i ->
      Workload.text ~seed:((seed * 7_919) + salt + (i * 104_729)) ~size:input_bytes)

let compile_at level (p : Programs.t) =
  (Pipeline.optimize level
     (Frontend.compile_sources [ Vclib.for_cost_model level; p.Programs.source ]))
    .Pipeline.modul

(* ---------------- per-pass accounting ---------------- *)

type acc = {
  mutable minic : float;
  mutable minic_calls : int;
  mutable opt : float;
  mutable size_out : int;
  mutable symex : float;
  mutable blast_sat : float;
  mutable instructions : int;
  mutable forks : int;
  mutable paths : int;
  mutable queries : int;
  mutable cache_hits : int;
  mutable solves : int;
  mutable solve_times : float list;  (** exact per-solve seconds (traced) *)
  mutable store_hits : int;
  mutable store_entries : int;
  mutable sum_computed : int;
  mutable sum_cached : int;
  mutable sum_instantiated : int;
  mutable executed : int;
  mutable dedup_hits : int;
  mutable interp : float;
  mutable cycles : int;
  mutable runs : int;
  changed : (string, int) Hashtbl.t;     (** per pass name *)
  pass_time : (string, float) Hashtbl.t;
  mutable lat_ms : float list;           (** per request / per cell *)
  mutable overhead_ms : float list;      (** serve: elapsed - engine *)
  mutable transport_ms : float list;     (** serve: latency - elapsed *)
  mutable attempted : int;
  mutable failed : int;
  mutable wrong : int;
}

let new_acc () =
  {
    minic = 0.0; minic_calls = 0; opt = 0.0; size_out = 0; symex = 0.0;
    blast_sat = 0.0; instructions = 0; forks = 0; paths = 0; queries = 0;
    cache_hits = 0; solves = 0; solve_times = []; store_hits = 0;
    store_entries = 0; sum_computed = 0; sum_cached = 0; sum_instantiated = 0;
    executed = 0; dedup_hits = 0; interp = 0.0; cycles = 0; runs = 0;
    changed = Hashtbl.create 16; pass_time = Hashtbl.create 16; lat_ms = [];
    overhead_ms = []; transport_ms = []; attempted = 0; failed = 0; wrong = 0;
  }

let bump tbl k v = Hashtbl.replace tbl k (v + Option.value ~default:0 (Hashtbl.find_opt tbl k))

let bumpf tbl k v =
  Hashtbl.replace tbl k (v +. Option.value ~default:0.0 (Hashtbl.find_opt tbl k))

(** The passes [Obs.Pass] reports, in pipeline order. *)
let pass_names =
  [ "runtime_checks"; "inline"; "unswitch"; "unroll"; "sroa"; "mem2reg";
    "constfold"; "gvn"; "loadelim"; "simplify_cfg"; "jump_threading";
    "if_convert"; "licm"; "loop_delete"; "dce"; "schedule"; "annotate" ]

(** [norm]: the pass's operations, each divided by the reference's time
    around it ({!normalized}). *)
type pass = { wall : float; norm : float; traced : bool; a : acc }

(** The exact duration of every fresh solve, from the trace sink's
    per-query spans (the profile's histogram only keeps power-of-two
    buckets). *)
let collect_solves a =
  List.iter
    (fun (e : Obs.Trace.event) ->
      if e.Obs.Trace.ev_name = "solver.check" then
        a.solve_times <- e.Obs.Trace.ev_dur :: a.solve_times)
    (Obs.Trace.events ())

let trace_file workload = Filename.concat out_dir (workload ^ ".trace.json")

(** Start collecting spans for a traced pass. *)
let trace_begin () =
  Obs.Trace.stop ();
  Obs.Trace.clear ();
  Obs.Trace.start ()

(* ---------------- in-process workloads ---------------- *)

type kept = {
  k_cell : cell;
  k_build : Ir.modul;
  k_result : Engine.result option;
  k_runs : (string * Interp.result) list;
}

type check = { c_wrong : int; c_cycles : int; c_runs : int; c_code_size : int }

let engine_config ?span ~traced n =
  {
    Engine.default_config with
    Engine.input_size = n;
    timeout = 170.0;
    searcher = `Dfs;
    profile = traced;
    summaries = false;
    solver_cache = Some true;
    span;
  }

(** One verdict against the record: 0 if it agrees, 1 otherwise. *)
let judge expected key (v : Oracle.verdict) =
  match Hashtbl.find_opt expected key with
  | Some want when Oracle.agrees ~want v -> 0
  | _ ->
      Printf.eprintf "perfbench: wrong verdict for %s\n%!" key;
      1

let inprocess ~workload ~seed cells =
  let expected = ref (Hashtbl.create 1) in
  let cells_in = ref [] in
  let o0 = Hashtbl.create 64 in
  let last = ref [] in
  let setup () =
    expected := Oracle.load expected_path;
    cells_in :=
      List.map (fun c -> (c, gen_inputs ~seed c.prog c.level)) cells;
    Hashtbl.reset o0;
    List.iter
      (fun c ->
        Hashtbl.replace o0 c.prog.Programs.name (compile_at Costmodel.o0 c.prog))
      cells
  in
  let pass ~traced =
    let a = new_acc () in
    let kept = ref [] in
    Gc.full_major ();
    if traced then trace_begin ();
    calibrate_n 5;
    let t_pass = now () and calib_s = ref 0.0 and ops = ref [] in
    List.iter
      (fun (c, inputs) ->
        calib_s := !calib_s +. calibrate_every 0.1;
        let t0 = now () in
        let span =
          if traced then Some (Obs.Span.start ("cell." ^ c.prog.Programs.name))
          else None
        in
        let within label f =
          match span with
          | None -> f ()
          | Some parent ->
              let s = Obs.Span.start ~parent label in
              let v = f () in
              Obs.Span.finish s;
              v
        in
        let m0 =
          within "minic" (fun () ->
              Frontend.compile_sources
                [ Vclib.for_cost_model c.level; c.prog.Programs.source ])
        in
        let t1 = now () in
        let prof = if traced then Some (Obs.Pass.create ()) else None in
        let built = within "opt" (fun () -> Pipeline.optimize ?prof c.level m0) in
        let m = built.Pipeline.modul in
        let t2 = now () in
        let res =
          if c.verify then
            Some (Engine.run ~config:(engine_config ?span ~traced c.n) m)
          else None
        in
        let t3 = now () in
        let runs =
          within "interp" (fun () ->
              List.map (fun input -> (input, Interp.run m ~input)) inputs)
        in
        let t4 = now () in
        Option.iter (fun s -> Obs.Span.finish s) span;
        a.attempted <- a.attempted + 1;
        a.minic <- a.minic +. (t1 -. t0);
        a.minic_calls <- a.minic_calls + 1;
        a.opt <- a.opt +. (t2 -. t1);
        a.size_out <- a.size_out + module_size m;
        a.symex <- a.symex +. (t3 -. t2);
        a.interp <- a.interp +. (t4 -. t3);
        a.lat_ms <- ((t4 -. t0) *. 1000.0) :: a.lat_ms;
        ops := (t0, t4) :: !ops;
        List.iter
          (fun (_, (r : Interp.result)) ->
            a.runs <- a.runs + 1;
            a.cycles <- a.cycles + r.Interp.cycles)
          runs;
        Option.iter
          (fun p ->
            List.iter
              (fun (r : Obs.Pass.rollup) ->
                bump a.changed r.Obs.Pass.pr_pass r.Obs.Pass.pr_changed;
                bumpf a.pass_time r.Obs.Pass.pr_pass r.Obs.Pass.pr_time)
              (Obs.Pass.rollup p))
          prof;
        Option.iter
          (fun (r : Engine.result) ->
            a.blast_sat <- a.blast_sat +. r.Engine.solver_time;
            a.instructions <- a.instructions + r.Engine.instructions;
            a.forks <- a.forks + r.Engine.forks;
            a.paths <- a.paths + r.Engine.paths;
            a.queries <- a.queries + r.Engine.queries;
            a.cache_hits <- a.cache_hits + r.Engine.cache_hits;
            a.solves <- a.solves + r.Engine.component_solves;
            if r.Engine.degradations <> [] then a.failed <- a.failed + 1;
            a.wrong <- a.wrong + judge !expected (cell_key c) (Oracle.of_result r))
          res;
        kept := { k_cell = c; k_build = m; k_result = res; k_runs = runs } :: !kept)
      !cells_in;
    let wall = now () -. t_pass -. !calib_s in
    calibrate_n 5;
    if traced then begin
      Obs.Trace.stop ();
      collect_solves a;
      Obs.Trace.write (trace_file workload)
    end
    else last := List.rev !kept;
    { wall; norm = normalized !ops; traced; a }
  in
  let check () =
    let wrong = ref 0 and cycles = ref 0 and runs = ref 0 and size = ref 0 in
    List.iter
      (fun k ->
        let o0 = Hashtbl.find o0 k.k_cell.prog.Programs.name in
        size := !size + module_size k.k_build;
        Option.iter
          (fun r -> wrong := !wrong + Oracle.replay ~build:k.k_build ~o0 r)
          k.k_result;
        List.iter
          (fun (input, (r : Interp.result)) ->
            incr runs;
            cycles := !cycles + r.Interp.cycles;
            if not (Oracle.same_behaviour r (Interp.run o0 ~input)) then begin
              Printf.eprintf "perfbench: %s: -O0 build disagrees on a generated input\n%!"
                (cell_key k.k_cell);
              incr wrong
            end)
          k.k_runs)
      !last;
    { c_wrong = !wrong; c_cycles = !cycles; c_runs = !runs; c_code_size = !size }
  in
  (setup, pass, check)

(* ---------------- serve-mix ---------------- *)

type entry = { e_cell : cell; e_rq : Protocol.request }

let clients = 2

(** Parts the timed replay is cut into (see {!serve_mix}). *)
let segments = 4

let request ~kind ~summaries c =
  {
    e_cell = c;
    e_rq =
      {
        Protocol.default_request with
        Protocol.rq_kind = kind;
        rq_program = c.prog.Programs.name;
        rq_level = level_name c.level;
        rq_input_size = c.n;
        rq_timeout = 150.0;
        rq_jobs = 1;
        rq_summaries = summaries;
      };
  }

(** Seeded Fisher-Yates shuffle. *)
let shuffle ~seed xs =
  let a = Array.of_list xs in
  let rand = lcg seed in
  for i = Array.length a - 1 downto 1 do
    let j = rand (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(** The (program, level) builds the daemon serves, each with a fixed hash
    that decides its part in the traces below. *)
let serve_builds () =
  List.filter_map
    (fun c ->
      if c.n = 2 then Some (c, Hashtbl.hash (c.prog.Programs.name, c.level.Costmodel.name))
      else None)
    (serve_universe ())

(** The timed request set.  It does not depend on the seed, so every seed
    asks for the same work: one verify per build at n = 2 or 3 (a quarter
    of them in summary mode), a compile for a third of the builds, and a
    second copy of a third of all these, which the daemon's dedup
    answers.  Each pass sends the set in its own seeded order. *)
let serve_requests () =
  serve_builds ()
  |> List.concat_map (fun (c, h) ->
         let c = { c with n = 2 + (h mod 2) } in
         let verify = request ~kind:Protocol.Verify ~summaries:((h / 2) mod 4 = 0) c in
         let compile = request ~kind:Protocol.Compile ~summaries:false c in
         let copies e k = if (h / k) mod 3 = 0 then [ e; e ] else [ e ] in
         copies verify 24 @ if (h / 8) mod 3 = 0 then copies compile 72 else [])
  |> Array.of_list

(** The warm-up trace: verifies of a quarter of the builds at the input
    size the timed trace does not use. *)
let warm_trace ~seed =
  serve_builds ()
  |> List.filter (fun (_, h) -> (h / 32) mod 4 = 0)
  |> List.map (fun (c, h) ->
         request ~kind:Protocol.Verify ~summaries:false { c with n = 3 - (h mod 2) })
  |> shuffle ~seed
  |> Array.of_list

(** Replay [entries] over [clients] closed-loop connections (entry [i]
    on connection [i mod clients]).  Returns the wall time and, per
    entry, the client-observed latency and the raw envelope. *)
let replay ~traced ~socket entries =
  let n = Array.length entries in
  let replies = Array.make n (0.0, None) in
  let client c =
    match Client.connect socket with
    | exception _ -> ()
    | conn ->
        for i = 0 to n - 1 do
          if i mod clients = c then begin
            let span = if traced then Some (Obs.Span.start "client.rpc") else None in
            let t0 = now () in
            let r = Client.rpc conn entries.(i).e_rq in
            let lat = (now () -. t0) *. 1000.0 in
            Option.iter (fun s -> Obs.Span.finish s) span;
            replies.(i) <- (lat, Result.to_option r)
          end
        done;
        Client.close conn
  in
  let t0 = now () in
  let threads = List.init clients (Thread.create client) in
  List.iter Thread.join threads;
  (now () -. t0, replies)

let raw_field json k = Protocol.extract_field json k

let str_field json k =
  match raw_field json k with
  | Some v -> (match Json.parse v with Ok (Json.Str s) -> s | _ -> String.trim v)
  | None -> ""

let num_field json k =
  match raw_field json k with
  | Some v -> Option.value ~default:0.0 (float_of_string_opt (String.trim v))
  | None -> 0.0

let jint j k = Option.value ~default:0 (Option.bind (Json.mem j k) Json.int_)
let jnum j k = Option.value ~default:0.0 (Option.bind (Json.mem j k) Json.num)

(** What the check phase needs from one served answer. *)
type served = {
  s_cell : cell;
  s_size : int option;        (** compile: reported code size *)
  s_bug_inputs : string list; (** verify: bug witnesses *)
}

(** A daemon rooted in [dir], whose store starts as [snapshot]. *)
let start_daemon ~dir ~snapshot =
  rm_rf dir;
  mkdir_p dir;
  List.iter (fun (f, bytes) -> write_file (Filename.concat dir f) bytes) snapshot;
  Serve.start ~socket:(Filename.concat dir "d.sock") ~cache_dir:dir
    ~recent_cap:1024 ~save_every:1_000_000 ~obs:false ()

let daemon_metrics socket =
  let conn = Client.connect socket in
  let r =
    Client.rpc conn
      { Protocol.default_request with Protocol.rq_kind = Protocol.Metrics }
  in
  Client.close conn;
  match r with
  | Ok env -> (
      match Option.map Json.parse (raw_field env "result") with
      | Some (Ok j) -> j
      | _ -> failwith "metrics op: unreadable result")
  | Error _ -> failwith "metrics op: transport failure"

let serve_mix ~workload ~seed =
  let expected = ref (Hashtbl.create 1) in
  let snapshot = ref [] in
  let requests = serve_requests () in
  let last = ref [] in
  let pass_no = ref 0 in
  let setup () =
    expected := Oracle.load expected_path;
    let dir = Filename.concat out_dir "serve-warm" in
    let d = start_daemon ~dir ~snapshot:[] in
    let warm = warm_trace ~seed:(seed + 1_000_003) in
    let (_, replies) = replay ~traced:false ~socket:(Serve.socket_path d) warm in
    Serve.stop d;
    if Array.exists (fun (_, r) -> r = None) replies then
      failwith "serve-mix: transport failure while warming the store";
    snapshot :=
      Sys.readdir dir |> Array.to_list
      |> List.filter (fun f -> f <> "d.sock")
      |> List.map (fun f -> (f, read_file (Filename.concat dir f)));
    rm_rf dir
  in
  let pass ~traced =
    let a = new_acc () in
    incr pass_no;
    let dir = Filename.concat out_dir (Printf.sprintf "serve-pass%d" !pass_no) in
    let d = start_daemon ~dir ~snapshot:!snapshot in
    let socket = Serve.socket_path d in
    let order =
      shuffle ~seed:((seed * 7_919) + !pass_no) (List.init (Array.length requests) Fun.id)
      |> Array.of_list
    in
    Gc.full_major ();
    if traced then trace_begin ();
    let entries =
      Array.mapi
        (fun pos i ->
          let e = requests.(i) in
          { e with e_rq = { e.e_rq with Protocol.rq_id = pos } })
        order
    in
    (* the replay goes in segments, with the reference timed between them
       while the daemon is idle *)
    let n = Array.length entries in
    let sent = Array.make n (0.0, None) in
    let wall = ref 0.0 and ops = ref [] in
    for k = 0 to segments - 1 do
      let lo = k * n / segments and hi = (k + 1) * n / segments in
      calibrate_n 5;
      let t0 = now () in
      let (w, r) = replay ~traced ~socket (Array.sub entries lo (hi - lo)) in
      Array.blit r 0 sent lo (hi - lo);
      wall := !wall +. w;
      ops := (t0, t0 +. w) :: !ops
    done;
    calibrate_n 5;
    let wall = !wall in
    if traced then Obs.Trace.stop ();
    let m = daemon_metrics socket in
    Serve.stop d;
    rm_rf dir;
    (* back in request-set order, so passes line up request by request *)
    let replies = Array.make (Array.length requests) (0.0, None) in
    Array.iteri (fun pos i -> replies.(i) <- sent.(pos)) order;
    let kept = ref [] in
    Array.iteri
      (fun i (lat, reply) ->
        let e = requests.(i) in
        a.attempted <- a.attempted + 1;
        a.lat_ms <- lat :: a.lat_ms;
        match reply with
        | None -> a.failed <- a.failed + 1
        | Some env ->
            let elapsed = num_field env "elapsed_ms" in
            let executed = str_field env "dedup" = "miss" in
            a.transport_ms <- (lat -. elapsed) :: a.transport_ms;
            if str_field env "status" <> "ok" then a.failed <- a.failed + 1
            else begin
              let result = Option.value ~default:"null" (raw_field env "result") in
              match e.e_rq.Protocol.rq_kind with
              | Protocol.Compile ->
                  let size = int_of_float (num_field result "size") in
                  if executed then a.size_out <- a.size_out + size;
                  kept := { s_cell = e.e_cell; s_size = Some size; s_bug_inputs = [] } :: !kept
              | _ -> (
                  match Json.parse result with
                  | Error _ -> a.failed <- a.failed + 1
                  | Ok j ->
                      let bugs =
                        match Json.mem j "bugs" with Some (Json.Arr l) -> l | _ -> []
                      in
                      let bug_field b k =
                        Option.value ~default:"" (Option.bind (Json.mem b k) Json.str)
                      in
                      (match Json.mem j "degradations" with
                      | Some (Json.Arr (_ :: _)) -> a.failed <- a.failed + 1
                      | _ -> ());
                      let v =
                        {
                          Oracle.paths = jint j "paths";
                          blocks = jint j "blocks_covered";
                          bugs =
                            List.sort_uniq compare
                              (List.map
                                 (fun b ->
                                   Oracle.bug_key ~kind:(bug_field b "kind")
                                     ~fn:(bug_field b "function"))
                                 bugs);
                          exits = None;
                        }
                      in
                      a.wrong <- a.wrong + judge !expected (cell_key e.e_cell) v;
                      if executed then begin
                        let engine_ms = jnum j "time_ms" in
                        a.symex <- a.symex +. (engine_ms /. 1000.0);
                        a.blast_sat <- a.blast_sat +. (jnum j "solver_time_ms" /. 1000.0);
                        a.instructions <- a.instructions + jint j "instructions";
                        a.forks <- a.forks + jint j "forks";
                        a.paths <- a.paths + jint j "paths";
                        a.queries <- a.queries + jint j "queries";
                        a.cache_hits <- a.cache_hits + jint j "cache_hits";
                        a.overhead_ms <- (elapsed -. engine_ms) :: a.overhead_ms
                      end;
                      kept :=
                        {
                          s_cell = e.e_cell;
                          s_size = None;
                          s_bug_inputs = List.map (fun b -> bug_field b "input") bugs;
                        }
                        :: !kept)
            end)
      replies;
    a.executed <- jint m "executed";
    a.dedup_hits <- jint m "dedup_hits";
    a.store_hits <- jint m "store_hits";
    a.store_entries <- jint m "store_entries";
    a.sum_computed <- jint m "summary_computed";
    a.sum_cached <- jint m "summary_cached";
    a.sum_instantiated <- jint m "summary_instantiated";
    if traced then begin
      (* the daemon's own spans: "compile" covers frontend + pipeline, the
         pipeline's per-pass events split out the optimizer *)
      let compile = ref 0.0 in
      List.iter
        (fun (ev : Obs.Trace.event) ->
          if ev.Obs.Trace.ev_cat = "opt" then begin
            a.opt <- a.opt +. ev.Obs.Trace.ev_dur;
            bumpf a.pass_time ev.Obs.Trace.ev_name ev.Obs.Trace.ev_dur;
            if List.assoc_opt "changed" ev.Obs.Trace.ev_args = Some "true" then
              bump a.changed ev.Obs.Trace.ev_name 1
          end
          else if ev.Obs.Trace.ev_name = "compile" then begin
            compile := !compile +. ev.Obs.Trace.ev_dur;
            a.minic_calls <- a.minic_calls + 1
          end)
        (Obs.Trace.events ());
      a.minic <- !compile -. a.opt;
      collect_solves a;
      a.solves <- List.length a.solve_times;
      Obs.Trace.write (trace_file workload)
    end
    else last := !kept;
    { wall; norm = normalized !ops; traced; a }
  in
  let check () =
    let wrong = ref 0 and cycles = ref 0 and runs = ref 0 and size = ref 0 in
    let o0 = Hashtbl.create 64 and builds = Hashtbl.create 256 in
    List.iter
      (fun c ->
        let name = c.prog.Programs.name in
        if not (Hashtbl.mem o0 name) then Hashtbl.replace o0 name (compile_at Costmodel.o0 c.prog);
        let bkey = (name, c.level.Costmodel.name) in
        if not (Hashtbl.mem builds bkey) then begin
          let m = compile_at c.level c.prog in
          Hashtbl.replace builds bkey m;
          size := !size + module_size m;
          List.iter
            (fun input ->
              let r = Interp.run m ~input in
              incr runs;
              cycles := !cycles + r.Interp.cycles;
              if not (Oracle.same_behaviour r (Interp.run (Hashtbl.find o0 name) ~input))
              then incr wrong)
            (gen_inputs ~seed c.prog c.level)
        end)
      (serve_universe ());
    List.iter
      (fun s ->
        let name = s.s_cell.prog.Programs.name in
        let build = Hashtbl.find builds (name, s.s_cell.level.Costmodel.name) in
        (match s.s_size with
        | Some reported when reported <> module_size build -> incr wrong
        | _ -> ());
        List.iter
          (fun input ->
            if not (Oracle.traps ~build ~o0:(Hashtbl.find o0 name) input) then incr wrong)
          s.s_bug_inputs)
      !last;
    { c_wrong = !wrong; c_cycles = !cycles; c_runs = !runs; c_code_size = !size }
  in
  (setup, pass, check)

(* ---------------- metrics and output ---------------- *)

let fmt_num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.9g" v

let metrics_json ms =
  "{"
  ^ String.concat ", "
      (List.map
         (fun (name, unit_, v) ->
           Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name (fmt_num v)
             unit_)
         ms)
  ^ "}"

let per_layer (p : pass) ~untraced_wall ~traced_wall ~best_ms =
  let a = p.a in
  let f = float_of_int in
  let self = a.symex -. a.blast_sat in
  let accounted = a.minic +. a.opt +. a.symex +. a.interp in
  [
    ("minic.time_s", "s", a.minic);
    ("minic.calls", "count", f a.minic_calls);
    ("opt.time_s", "s", a.opt);
    ("opt.size_out", "count", f a.size_out);
  ]
  @ List.map
      (fun name ->
        ( Printf.sprintf "opt.pass.%s.changed" name,
          "count",
          f (Option.value ~default:0 (Hashtbl.find_opt a.changed name)) ))
      pass_names
  @ [
      ("symex.time_s", "s", a.symex);
      ("symex.self_s", "s", self);
      ("symex.instructions", "count", f a.instructions);
      ("symex.forks", "count", f a.forks);
      ("symex.paths", "count", f a.paths);
      ("symex.insts_per_s", "1/s",
       if a.symex > 0.0 then f a.instructions /. a.symex else 0.0);
      ("solver.queries", "count", f a.queries);
      ("solver.cache_hits", "count", f a.cache_hits);
      ("solver.hit_ratio", "ratio",
       if a.queries > 0 then f a.cache_hits /. f a.queries else 0.0);
      ("solver.component_solves", "count", f a.solves);
      ("solver.blast_sat_s", "s", a.blast_sat);
      ("solver.solve_mean_ms", "ms",
       if a.solve_times = [] then 0.0
       else 1000.0 *. List.fold_left ( +. ) 0.0 a.solve_times /. f (List.length a.solve_times));
      ("solver.solve_p95_ms", "ms", 1000.0 *. percentile 0.95 a.solve_times);
      ("store.hits", "count", f a.store_hits);
      ("store.entries", "count", f a.store_entries);
      ("summary.computed", "count", f a.sum_computed);
      ("summary.cached", "count", f a.sum_cached);
      ("summary.instantiated", "count", f a.sum_instantiated);
      ("serve.executed", "count", f a.executed);
      ("serve.dedup_hits", "count", f a.dedup_hits);
      ("interp.cycles", "count", f a.cycles);
      ("unattributed_s", "s", p.wall -. accounted);
      ("trace.overhead_s", "s", traced_wall -. untraced_wall);
      ("request_p50_ms", "ms", percentile 0.50 best_ms);
      ("request_p95_ms", "ms", percentile 0.95 best_ms);
    ]

let mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(** Human-readable per-layer breakdown of one pass (stdout, before the
    result line). *)
let print_breakdown workload (p : pass) =
  let a = p.a in
  let row name v =
    Printf.printf "  %-14s %10.4f s  %5.1f%%\n" name v
      (if p.wall > 0.0 then 100.0 *. v /. p.wall else 0.0)
  in
  Printf.printf "%s: per-layer breakdown of the fastest traced pass\n" workload;
  row "minic" a.minic;
  row "opt" a.opt;
  row "symex" a.symex;
  row "  (self)" (a.symex -. a.blast_sat);
  row "  (blast+SAT)" a.blast_sat;
  row "interp" a.interp;
  row "unattributed" (p.wall -. (a.minic +. a.opt +. a.symex +. a.interp));
  row "verdict" p.wall;
  Printf.printf
    "  note: symex.self_s is symex.time_s - solver.blast_sat_s: executor \
     stepping plus the solver's canonical path (canonicalize, partition, \
     rename, cache lookups), which cannot be separated from outside the \
     engine.\n";
  Printf.printf "  solver: %d of %d queries answered by a cache (%.4f), %d fresh solves\n"
    a.cache_hits a.queries
    (if a.queries > 0 then float_of_int a.cache_hits /. float_of_int a.queries else 0.0)
    a.solves;
  Printf.printf "  interp: %.4f s over %d runs, %d cycles\n" a.interp a.runs a.cycles;
  if a.overhead_ms <> [] || a.transport_ms <> [] then
    Printf.printf
      "  serve: overhead_ms_mean %.3f (elapsed - engine, executed verifies), \
       transport_ms_mean %.3f (latency - elapsed)\n"
      (mean a.overhead_ms) (mean a.transport_ms);
  let passes =
    List.filter (fun n -> Hashtbl.mem a.pass_time n || Hashtbl.mem a.changed n) pass_names
  in
  if passes <> [] then begin
    Printf.printf "  %-16s %10s %8s\n" "opt pass" "time_s" "changed";
    List.iter
      (fun n ->
        Printf.printf "  %-16s %10.4f %8d\n" n
          (Option.value ~default:0.0 (Hashtbl.find_opt a.pass_time n))
          (Option.value ~default:0 (Hashtbl.find_opt a.changed n)))
      passes
  end

(** Machine-readable layer sums of the reported traced pass, for the
    benchmark's own test. *)
let write_layers workload (p : pass) =
  let a = p.a in
  write_file
    (Filename.concat out_dir (workload ^ ".layers.json"))
    (Printf.sprintf
       "{\"verdict_s\": %.9f, \"layers\": {\"minic.time_s\": %.9f, \
        \"opt.time_s\": %.9f, \"symex.time_s\": %.9f, \"interp.time_s\": \
        %.9f, \"unattributed_s\": %.9f}}\n"
       p.wall a.minic a.opt a.symex a.interp
       (p.wall -. (a.minic +. a.opt +. a.symex +. a.interp)))

let peak_heap_mb () =
  let st = Gc.quick_stat () in
  float_of_int (st.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

let workloads = [ "corpus-overify"; "wc-deep"; "solve-bound"; "serve-mix" ]

let run ~workload ~seed ~seconds ~trace =
  mkdir_p out_dir;
  let (setup, pass, check) =
    match workload with
    | "corpus-overify" -> inprocess ~workload ~seed (corpus_cells ())
    | "wc-deep" -> inprocess ~workload ~seed (wc_cells ())
    | "solve-bound" -> inprocess ~workload ~seed (solve_cells ())
    | "serve-mix" -> serve_mix ~workload ~seed
    | w ->
        failwith
          (Printf.sprintf "unknown workload %S (one of: %s)" w
             (String.concat ", " workloads))
  in
  (* at least 3 set-ups, up to 25 while they take under 1 s in all *)
  let setups = ref [] in
  while
    List.length !setups < 3
    || (List.length !setups < 25
       && List.fold_left (fun s (t0, t1) -> s +. (t1 -. t0)) 0.0 !setups < 1.0)
  do
    calibrate_n 3;
    let t0 = now () in
    setup ();
    setups := (t0, now ()) :: !setups
  done;
  calibrate_n 3;
  let setups = List.rev !setups in
  (* passes until the next one would overrun [seconds]; at least two (one
     of each kind when tracing) *)
  let t_start = now () in
  let passes = ref [] and longest = ref 0.0 in
  (* the heap keeps growing for a few passes, so a peak read at the end
     would depend on how many passes fit in the run: read it after two *)
  let heap = ref 0.0 in
  while
    List.length !passes < 2 || now () -. t_start +. !longest <= seconds
  do
    let t0 = now () in
    let traced = trace && List.length !passes mod 2 = 1 in
    passes := pass ~traced :: !passes;
    if List.length !passes = 2 then heap := peak_heap_mb ();
    longest := Float.max !longest (now () -. t0)
  done;
  let passes = List.rev !passes in
  let chk = check () in
  let untraced = List.filter (fun p -> not p.traced) passes in
  let traced = List.filter (fun p -> p.traced) passes in
  let attempted = List.fold_left (fun n p -> n + p.a.attempted) 0 passes in
  let failed = List.fold_left (fun n p -> n + p.a.failed) 0 passes in
  let wrong = List.fold_left (fun n p -> n + p.a.wrong) chk.c_wrong passes in
  (* the latency samples: each request or cell at its fastest over the
     untraced passes *)
  let best_ms =
    match untraced with
    | [] -> []
    | p :: rest ->
        List.fold_left (fun acc q -> List.map2 Float.min acc q.a.lat_ms) p.a.lat_ms rest
  in
  let untraced_wall = List.fold_left (fun m p -> Float.min m p.wall) infinity untraced in
  let metrics =
    if not trace then
      [
        ("setup_s", "s",
         nominal_reference_s *. median (List.map (fun iv -> normalized [ iv ]) setups));
        ("verdict_s", "s",
         nominal_reference_s *. median (List.map (fun p -> p.norm) untraced));
        ("run_cycles", "cycles",
         float_of_int chk.c_cycles /. float_of_int (max 1 chk.c_runs));
        ("code_size", "count", float_of_int chk.c_code_size);
        ("peak_heap_mb", "MB", !heap);
      ]
    else begin
      (* the fastest traced pass: its layers sum to its wall *)
      let p =
        List.fold_left (fun b p -> if p.wall < b.wall then p else b)
          (List.hd traced) traced
      in
      print_breakdown workload p;
      write_layers workload p;
      Printf.printf "  chrome trace of the last traced pass: %s\n" (trace_file workload);
      per_layer p ~untraced_wall ~traced_wall:p.wall ~best_ms
    end
  in
  Printf.printf
    "  raw, at the host's speed of the moment: setup_s %.4f s, verdict_s %.4f s; \
     reference: median %.4f s over %d timings\n"
    (median (List.map (fun (t0, t1) -> t1 -. t0) setups))
    (median (List.map (fun p -> p.wall) untraced))
    (median (List.map snd !samples)) (List.length !samples);
  (* request latency amplifies the host's slow spells (a served request
     also queues behind the other connection's): across seeds its
     quartiles spread wider than any bound a gate could use, so it is
     reported here and in the traced run's per-layer metrics, unbounded *)
  Printf.printf
    "  request latency, each request at its fastest over %d untraced passes: \
     p50 %.3f ms, p95 %.3f ms\n"
    (List.length untraced) (percentile 0.50 best_ms) (percentile 0.95 best_ms);
  (* in-process passes time the compiler from outside; the daemon compiles
     internally, which only the traced run's spans can see *)
  if workload <> "serve-mix" then
    Printf.printf "  compile_s (frontend + pipeline) of the fastest pass: %.4f s\n"
      (List.fold_left (fun m p -> Float.min m (p.a.minic +. p.a.opt)) infinity untraced);
  Printf.printf
    "%s: seed %d, %d passes (%d traced) of %d operations (the latency \
     samples), %d operations failed (error_rate %.4f), wrong_verdicts %d\n"
    workload seed (List.length passes) (List.length traced)
    (attempted / List.length passes) failed
    (float_of_int failed /. float_of_int (max 1 attempted))
    wrong;
  Printf.printf "  set-ups (s): %s\n  pass walls (s): %s\n"
    (String.concat " " (List.map (fun (t0, t1) -> Printf.sprintf "%.3f" (t1 -. t0)) setups))
    (String.concat " "
       (List.map (fun p -> Printf.sprintf "%.3f%s" p.wall (if p.traced then "t" else "")) passes));
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}\n%!"
    (wrong = 0) attempted failed (metrics_json metrics);
  if wrong > 0 then exit 1

(* ---------------- the expected-verdict record ---------------- *)

(** Path counts EXPERIMENTS.md publishes for [wc] (Table 1 sweep). *)
let published =
  [ ("wc/O0/2", 133); ("wc/O0/3", 1464); ("wc/O0/4", 16105); ("wc/O3/2", 31);
    ("wc/O3/3", 156); ("wc/OVERIFY/2", 3); ("wc/OVERIFY/3", 4) ]

(** Verify every cell any workload can run, replay its witnesses, and
    write the record.  Fails on a degraded run, a failed replay or a
    disagreement with a published number. *)
let record () =
  let seen = Hashtbl.create 512 in
  let cells =
    List.filter
      (fun c ->
        c.verify
        && not (Hashtbl.mem seen (cell_key c))
        && (Hashtbl.replace seen (cell_key c) (); true))
      (corpus_cells () @ wc_cells () @ solve_cells () @ serve_universe ())
  in
  let lines =
    List.map
      (fun c ->
        let key = cell_key c in
        let t0 = now () in
        let build = compile_at c.level c.prog in
        let r = Engine.run ~config:(engine_config ~traced:false c.n) build in
        if r.Engine.degradations <> [] then failwith (key ^ ": degraded run");
        let bad = Oracle.replay ~build ~o0:(compile_at Costmodel.o0 c.prog) r in
        if bad > 0 then failwith (Printf.sprintf "%s: %d witnesses failed replay" key bad);
        (match List.assoc_opt key published with
        | Some want when want <> r.Engine.paths ->
            failwith (Printf.sprintf "%s: %d paths, EXPERIMENTS.md says %d" key r.Engine.paths want)
        | _ -> ());
        Printf.eprintf "%-24s %6d paths %7.2fs\n%!" key r.Engine.paths (now () -. t0);
        Oracle.line_of ~prog:c.prog.Programs.name ~level:(level_name c.level) ~n:c.n
          (Oracle.of_result r))
      cells
  in
  write_file expected_path
    ("# prog\tlevel\tn\tpaths\tblocks_covered\tbugs\texit_code:paths (perfbench.exe --record)\n"
    ^ String.concat "\n" lines ^ "\n")

(* ---------------- command line ---------------- *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let record_mode = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " one of " ^ String.concat ", " workloads);
      ("--seed", Arg.Set_int seed, " input/trace seed");
      ("--seconds", Arg.Set_float seconds, " measuring time");
      ("--trace", Arg.Set_int trace, " 1 = per-layer traced run");
      ("--record", Arg.Set record_mode, " rewrite the expected-verdict record");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench.exe --workload W --seed N --seconds S --trace 0|1";
  if !record_mode then record ()
  else run ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
