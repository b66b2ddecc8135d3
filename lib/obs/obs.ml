(** Observability for the verification toolchain: the latency histogram,
    the run cost counters, the symbolic-execution attribution profile (per
    function and basic block), the per-pass compile profile, hierarchical
    spans with their flight ring, and Chrome [trace_event] export.

    Design constraints (DESIGN.md, "Observability"):

    - {e near-zero cost when disabled}: every hot-path instrumentation site
      is guarded by a per-consumer [option] (the executor's [prof] field,
      the solver's [hist] field, the engine's [span]) or by the
      {!Trace.enabled} flag — one branch, no allocation, no clock read.
    - {e attribution sums to totals}: profile sites are {!Counters} records
      receiving the very same increments as the worker's own record, so
      per-site values sum exactly to [Engine.result] (solver time within
      float rounding).
    - {e domain safety}: counter records and profile collectors are
      single-owner (one per worker domain, combined after the join); the
      trace buffer is the one shared sink and takes a mutex per event. *)

(* ---------------- JSON strings ---------------- *)

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

(* ---------------- latency histogram ---------------- *)

(** Log-scale latency histogram: bucket [i] counts observations with
    [dt < 1us * 2^i]; the last bucket is unbounded.  Merging is bucket-wise
    addition, so per-worker histograms combine deterministically. *)
module Hist = struct
  let nbuckets = 28 (* 1us .. ~67 s, then overflow *)

  type t = {
    mutable count : int;
    mutable sum : float;          (** seconds *)
    mutable max : float;
    buckets : int array;
  }

  let create () = { count = 0; sum = 0.0; max = 0.0; buckets = Array.make nbuckets 0 }

  let bucket_of dt =
    let rec go i bound =
      if i >= nbuckets - 1 || dt < bound then i else go (i + 1) (bound *. 2.0)
    in
    go 0 1e-6

  let observe t dt =
    t.count <- t.count + 1;
    t.sum <- t.sum +. dt;
    if dt > t.max then t.max <- dt;
    let b = bucket_of dt in
    t.buckets.(b) <- t.buckets.(b) + 1

  let merge_into dst src =
    dst.count <- dst.count + src.count;
    dst.sum <- dst.sum +. src.sum;
    if src.max > dst.max then dst.max <- src.max;
    Array.iteri (fun i n -> dst.buckets.(i) <- dst.buckets.(i) + n) src.buckets

  (** Upper bound (seconds) of bucket [i]; the last bucket has none. *)
  let bucket_bound i = 1e-6 *. (2.0 ** float_of_int i)

  let cumulative t =
    let rec go i cum =
      if i >= nbuckets - 1 then []
      else
        let cum = cum + t.buckets.(i) in
        (bucket_bound i, cum) :: go (i + 1) cum
    in
    go 0 0

  (** Approximate percentile from the buckets: the upper bound of the
      first bucket reaching rank [p], capped at the max; the max itself
      when only the unbounded last bucket does.  [p] in [0,1]. *)
  let percentile t p =
    if t.count = 0 then 0.0
    else
      let target = int_of_float (ceil (p *. float_of_int t.count)) in
      match List.find_opt (fun (_, cum) -> cum >= target) (cumulative t) with
      | Some (bound, _) -> min bound t.max
      | None -> t.max

  let mean t = if t.count = 0 then 0.0 else t.sum /. float_of_int t.count
end

(* ---------------- run cost counters ---------------- *)

(** The cost counters of a symbolic-execution run.  A worker's executor
    and solver increment one shared record; profile sites, worker spans
    and [Engine.result] are all built from such records, so
    every grain of accounting sums to the same totals.  Records are
    single-owner (one per worker domain), combined after the join. *)
module Counters = struct
  type t = {
    mutable instructions : int;
    mutable forks : int;
    mutable paths : int;
    mutable queries : int;
    mutable cache_hits : int;
    mutable solver_time : float;
    mutable components : int;
    mutable component_solves : int;
    mutable hits_canon : int;
    mutable hits_store : int;
    mutable summary_instantiated : int;
    mutable summary_opaque : int;
  }

  let create () =
    {
      instructions = 0;
      forks = 0;
      paths = 0;
      queries = 0;
      cache_hits = 0;
      solver_time = 0.0;
      components = 0;
      component_solves = 0;
      hits_canon = 0;
      hits_store = 0;
      summary_instantiated = 0;
      summary_opaque = 0;
    }

  let copy t = { t with instructions = t.instructions }

  (* [dst += k * src], field by field *)
  let accumulate k dst src =
    dst.instructions <- dst.instructions + (k * src.instructions);
    dst.forks <- dst.forks + (k * src.forks);
    dst.paths <- dst.paths + (k * src.paths);
    dst.queries <- dst.queries + (k * src.queries);
    dst.cache_hits <- dst.cache_hits + (k * src.cache_hits);
    dst.solver_time <- dst.solver_time +. (float_of_int k *. src.solver_time);
    dst.components <- dst.components + (k * src.components);
    dst.component_solves <- dst.component_solves + (k * src.component_solves);
    dst.hits_canon <- dst.hits_canon + (k * src.hits_canon);
    dst.hits_store <- dst.hits_store + (k * src.hits_store);
    dst.summary_instantiated <-
      dst.summary_instantiated + (k * src.summary_instantiated);
    dst.summary_opaque <- dst.summary_opaque + (k * src.summary_opaque)

  let add dst src = accumulate 1 dst src

  let diff a b =
    let d = copy a in
    accumulate (-1) d b;
    d

  let sum ts =
    let t = create () in
    List.iter (add t) ts;
    t

  let to_list t =
    let i = float_of_int in
    [
      ("instructions", i t.instructions);
      ("forks", i t.forks);
      ("paths", i t.paths);
      ("queries", i t.queries);
      ("cache_hits", i t.cache_hits);
      ("solver_time", t.solver_time);
      ("components", i t.components);
      ("component_solves", i t.component_solves);
      ("hits_canon", i t.hits_canon);
      ("hits_store", i t.hits_store);
      ("summary_instantiated", i t.summary_instantiated);
      ("summary_opaque", i t.summary_opaque);
    ]
end

(* ---------------- symbolic-execution attribution profile ---------------- *)

(** Per-(function, block) cost attribution for one symbolic-execution run.
    One collector per worker domain (single-owner, no locking); collectors
    merge after the join exactly like the workers' counters.

    The executor keys every increment by the {e current} frame's function
    and block, and a one-entry memo makes the common case (consecutive
    instructions of one block) a pointer comparison instead of a hashtable
    lookup. *)
module Profile = struct
  type t = {
    sites : (string * int, Counters.t) Hashtbl.t;
    qhist : Hist.t;               (** per-query blast+SAT latency *)
    mutable last_fn : string;
    mutable last_block : int;
    mutable last_cell : Counters.t;
  }

  let create () =
    {
      sites = Hashtbl.create 64;
      qhist = Hist.create ();
      last_fn = "";
      last_block = min_int;  (* never matches a real block id *)
      last_cell = Counters.create ();
    }

  let site t ~fn ~block =
    if block = t.last_block && fn == t.last_fn then t.last_cell
    else begin
      let cell =
        match Hashtbl.find_opt t.sites (fn, block) with
        | Some c -> c
        | None ->
            let c = Counters.create () in
            Hashtbl.add t.sites (fn, block) c;
            c
      in
      t.last_fn <- fn;
      t.last_block <- block;
      t.last_cell <- cell;
      cell
    end

  let merge_into dst src =
    Hashtbl.iter
      (fun (fn, block) c -> Counters.add (site dst ~fn ~block) c)
      src.sites;
    Hist.merge_into dst.qhist src.qhist

  (** All sites in canonical (function, block) order. *)
  let sites t =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.sites []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
end

(* ---------------- per-pass compile profile ---------------- *)

(** One record per optimization-pass application: wall time and code-size
    delta, in application order.  Collected by [Pipeline.optimize ~prof]. *)
module Pass = struct
  type app = {
    pa_pass : string;
    pa_fn : string;       (** ["*"] for module-level passes *)
    pa_time : float;      (** seconds *)
    pa_size_before : int; (** static instructions (function, or module for ["*"]) *)
    pa_size_after : int;
    pa_changed : bool;
  }

  type t = { mutable apps_rev : app list }

  let create () = { apps_rev = [] }
  let record t a = t.apps_rev <- a :: t.apps_rev
  let apps t = List.rev t.apps_rev

  type rollup = {
    pr_pass : string;
    pr_apps : int;        (** applications attempted *)
    pr_changed : int;     (** applications that changed code *)
    pr_time : float;
    pr_dsize : int;       (** net static-size delta of changing applications *)
  }

  (** One row per pass, in first-application order. *)
  let rollup t =
    let order = ref [] in
    let tbl = Hashtbl.create 16 in
    List.iter
      (fun a ->
        let r =
          match Hashtbl.find_opt tbl a.pa_pass with
          | Some r -> r
          | None ->
              order := a.pa_pass :: !order;
              { pr_pass = a.pa_pass; pr_apps = 0; pr_changed = 0;
                pr_time = 0.0; pr_dsize = 0 }
        in
        Hashtbl.replace tbl a.pa_pass
          {
            r with
            pr_apps = r.pr_apps + 1;
            pr_changed = (r.pr_changed + if a.pa_changed then 1 else 0);
            pr_time = r.pr_time +. a.pa_time;
            pr_dsize =
              (r.pr_dsize
              + if a.pa_changed then a.pa_size_after - a.pa_size_before else 0);
          })
      (apps t);
    List.rev_map (fun p -> Hashtbl.find tbl p) !order
end

(* ---------------- Chrome trace_event export ---------------- *)

(** Structured trace sink in Chrome's [trace_event] JSON format (load the
    emitted file in [chrome://tracing] / Perfetto).  One process-global
    buffer behind a mutex: events come from pass applications, solver
    queries, TV obligations and engine runs — thousands, not millions, so a
    lock per event is fine.  Collection is off until {!start}. *)
module Trace = struct
  type event = {
    ev_name : string;
    ev_cat : string;
    ev_ts : float;    (** absolute seconds (Unix.gettimeofday) *)
    ev_dur : float;   (** seconds; 0 for instant events *)
    ev_tid : int;
    ev_args : (string * string) list;
  }

  type sink = {
    mutable events_rev : event list;
    mutable t0 : float;     (** trace epoch: first [start] *)
    mu : Mutex.t;
  }

  let sink = { events_rev = []; t0 = 0.0; mu = Mutex.create () }
  let collecting = ref false

  let enabled () = !collecting

  let start () =
    Mutex.lock sink.mu;
    sink.events_rev <- [];
    sink.t0 <- Unix.gettimeofday ();
    Mutex.unlock sink.mu;
    collecting := true

  let stop () = collecting := false

  let clear () =
    Mutex.lock sink.mu;
    sink.events_rev <- [];
    Mutex.unlock sink.mu

  let emit ?(cat = "overify") ?(args = []) ~name ~ts ~dur () =
    if !collecting then begin
      let ev =
        {
          ev_name = name;
          ev_cat = cat;
          ev_ts = ts;
          ev_dur = dur;
          ev_tid = (Domain.self () :> int);
          ev_args = args;
        }
      in
      Mutex.lock sink.mu;
      sink.events_rev <- ev :: sink.events_rev;
      Mutex.unlock sink.mu
    end

  let events () =
    Mutex.lock sink.mu;
    let evs = List.rev sink.events_rev in
    Mutex.unlock sink.mu;
    evs

  let event_to_json t0 ev =
    let args =
      match ev.ev_args with
      | [] -> ""
      | args ->
          Printf.sprintf ", \"args\": {%s}"
            (String.concat ", "
               (List.map
                  (fun (k, v) ->
                    Printf.sprintf "\"%s\": \"%s\"" (json_escape k)
                      (json_escape v))
                  args))
    in
    Printf.sprintf
      "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"%s\", \"ts\": %.1f, \
       \"dur\": %.1f, \"pid\": 1, \"tid\": %d%s}"
      (json_escape ev.ev_name) (json_escape ev.ev_cat)
      (if ev.ev_dur > 0.0 then "X" else "i")
      ((ev.ev_ts -. t0) *. 1e6)
      (ev.ev_dur *. 1e6) ev.ev_tid args

  (** The collected events as one Chrome-loadable JSON document. *)
  let to_json () =
    Mutex.lock sink.mu;
    let t0 = sink.t0 and evs = List.rev sink.events_rev in
    Mutex.unlock sink.mu;
    Printf.sprintf "{\"traceEvents\": [\n%s\n]}\n"
      (String.concat ",\n" (List.map (event_to_json t0) evs))

  (** Write {!to_json} to [path] (also accepts a [.jsonl] path, one event
      per line). *)
  let write path =
    Out_channel.with_open_text path (fun oc ->
        if Filename.check_suffix path ".jsonl" then begin
          Mutex.lock sink.mu;
          let t0 = sink.t0 and evs = List.rev sink.events_rev in
          Mutex.unlock sink.mu;
          List.iter
            (fun ev -> output_string oc (event_to_json t0 ev ^ "\n"))
            evs
        end
        else output_string oc (to_json ()))
end

(* ---------------- flight-recorder ring ---------------- *)

(** Bounded in-memory ring of recent span/event/log records — the
    flight recorder's working memory.  Recording is unconditional (the
    callers gate: a record only exists because somebody opened a span or
    logged), bounded (drop-oldest beyond [cap], with a dropped counter so
    a dump says how much history it lost), and cheap (one mutex + queue
    push per record; record producers are per-request/per-query, not
    per-instruction).  Serialization lives upstream in [lib/serve] —
    this module cannot depend on [Binfile] (the solver depends on obs). *)
module Flight = struct
  type record = {
    fr_ts : float;     (** absolute start, Unix seconds *)
    fr_dur : float;    (** seconds; 0 for instant events and log lines *)
    fr_trace : string; (** trace id; joins spans, events, logs, envelopes *)
    fr_id : int;       (** span id; 0 for events/logs without one *)
    fr_parent : int;   (** parent span id; -1 = root *)
    fr_kind : string;  (** ["span"] | ["event"] | ["log"] *)
    fr_label : string;
    fr_counters : (string * float) list;
    fr_args : (string * string) list;
  }

  let default_cap = 2048

  type ring = {
    mutable cap : int;
    q : record Queue.t;
    mutable dropped : int;
    mu : Mutex.t;
  }

  let ring =
    { cap = default_cap; q = Queue.create (); dropped = 0; mu = Mutex.create () }

  let set_cap n =
    Mutex.lock ring.mu;
    ring.cap <- max 1 n;
    while Queue.length ring.q > ring.cap do
      ignore (Queue.pop ring.q);
      ring.dropped <- ring.dropped + 1
    done;
    Mutex.unlock ring.mu

  let record r =
    Mutex.lock ring.mu;
    Queue.push r ring.q;
    while Queue.length ring.q > ring.cap do
      ignore (Queue.pop ring.q);
      ring.dropped <- ring.dropped + 1
    done;
    Mutex.unlock ring.mu

  (** Snapshot, oldest first. *)
  let records () =
    Mutex.lock ring.mu;
    let rs = List.of_seq (Queue.to_seq ring.q) in
    Mutex.unlock ring.mu;
    rs

  let dropped () =
    Mutex.lock ring.mu;
    let d = ring.dropped in
    Mutex.unlock ring.mu;
    d

  let clear () =
    Mutex.lock ring.mu;
    Queue.clear ring.q;
    ring.dropped <- 0;
    Mutex.unlock ring.mu
end

(* ---------------- hierarchical spans ---------------- *)

(** Hierarchical wall-clock spans: a trace id shared by everything one
    request touches, a span id, a parent, a label and attached counters.
    Opened at request admission in [lib/serve], threaded through
    [Engine.config.span] into summary build, per-worker exploration and
    per-query solves.  A worker span closes with its worker's
    {!Counters} record, so per-span counter sums equal engine totals
    exactly as the {!Profile} per-site sums do.

    A finished span lands in the {!Flight} ring and, when trace
    collection is on, in the {!Trace} sink (with [trace]/[span]/[parent]
    args, so the Chrome timeline renders a multi-request daemon view).
    Spans are created only on demand (a [None] config field elsewhere);
    an un-traced run pays one [option] branch per site. *)
module Span = struct
  type t = {
    sp_trace : string;
    sp_id : int;
    sp_parent : int;  (** -1 = root *)
    sp_label : string;
    sp_start : float;
  }

  let next_id = Atomic.make 1
  let next_trace = Atomic.make 1

  (** Fresh local trace id (daemon requests use fingerprint-derived ids
      instead, so duplicates share one trace). *)
  let fresh_trace () =
    Printf.sprintf "local-%d" (Atomic.fetch_and_add next_trace 1)

  let start ?trace ?parent label =
    let trace =
      match (trace, parent) with
      | Some t, _ -> t
      | None, Some p -> p.sp_trace
      | None, None -> fresh_trace ()
    in
    {
      sp_trace = trace;
      sp_id = Atomic.fetch_and_add next_id 1;
      sp_parent = (match parent with Some p -> p.sp_id | None -> -1);
      sp_label = label;
      sp_start = Unix.gettimeofday ();
    }

  let start_traced ?parent label =
    if Option.is_some parent || Trace.enabled () then Some (start ?parent label)
    else None

  let span_args t =
    [ ("trace", t.sp_trace); ("span", string_of_int t.sp_id);
      ("parent", string_of_int t.sp_parent) ]

  let record_span t ~ts ~dur ~counters =
    Flight.record
      {
        Flight.fr_ts = ts;
        fr_dur = dur;
        fr_trace = t.sp_trace;
        fr_id = t.sp_id;
        fr_parent = t.sp_parent;
        fr_kind = "span";
        fr_label = t.sp_label;
        fr_counters = counters;
        fr_args = [];
      };
    if Trace.enabled () then
      Trace.emit ~cat:"span"
        ~args:
          (span_args t
          @ List.map (fun (k, v) -> (k, Printf.sprintf "%g" v)) counters)
        ~name:t.sp_label ~ts ~dur ()

  (** Close the span: its interval is [sp_start .. now].  [counters]
      (canonically sorted) are the span's attributed costs. *)
  let finish ?(counters = []) t =
    let now = Unix.gettimeofday () in
    let counters = List.sort compare counters in
    record_span t ~ts:t.sp_start ~dur:(now -. t.sp_start) ~counters

  (** One-shot child span with an explicit interval — the per-query
      solver hook, which already holds start and duration. *)
  let emit ~parent ?(counters = []) ~ts ~dur label =
    let t =
      {
        sp_trace = parent.sp_trace;
        sp_id = Atomic.fetch_and_add next_id 1;
        sp_parent = parent.sp_id;
        sp_label = label;
        sp_start = ts;
      }
    in
    record_span t ~ts ~dur ~counters:(List.sort compare counters)

  (** Instant event attached to a span's trace (degradations, injected
      faults, summary instantiations). *)
  let event ?parent ?(trace = "") ?(args = []) label =
    let trace =
      match (parent, trace) with
      | Some p, _ -> p.sp_trace
      | None, t -> t
    in
    Flight.record
      {
        Flight.fr_ts = Unix.gettimeofday ();
        fr_dur = 0.0;
        fr_trace = trace;
        fr_id = 0;
        fr_parent = (match parent with Some p -> p.sp_id | None -> -1);
        fr_kind = "event";
        fr_label = label;
        fr_counters = [];
        fr_args = args;
      };
    if Trace.enabled () then
      Trace.emit ~cat:"span"
        ~args:(("trace", trace) :: args)
        ~name:label ~ts:(Unix.gettimeofday ()) ~dur:0.0 ()
end
