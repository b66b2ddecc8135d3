(** Observability for the verification toolchain (DESIGN.md,
    "Observability"): the latency histogram, the run cost counters, the
    symbolic-execution attribution profile, the per-pass compile profile,
    hierarchical spans with their flight ring, and Chrome [trace_event]
    export.

    Instrumentation is near-zero cost when disabled: hot paths are guarded
    by a per-consumer [option] or the {!Trace.enabled} flag — a single
    branch, no allocation, no clock read. *)

val json_escape : string -> string
(** Escape a raw byte string for embedding between JSON quotes: quote,
    backslash, [\n], [\t] and [\r] by name, other control characters as
    [\u00XX]; bytes >= 0x80 pass through.  The one escaper behind every
    hand-written JSON document (verdicts, profiles, TV reports, traces
    and the serve protocol). *)

(** Log-scale latency histogram.  Bucket [i < nbuckets - 1] counts
    observations under [1us * 2^i] (and at or above the previous bound);
    the last bucket is unbounded and holds every observation of
    [bucket_bound (nbuckets - 2)] (~67 s) or more.  Merging is bucket-wise,
    hence deterministic. *)
module Hist : sig
  val nbuckets : int

  type t = {
    mutable count : int;
    mutable sum : float;   (** seconds *)
    mutable max : float;
    buckets : int array;
  }

  val create : unit -> t
  val observe : t -> float -> unit
  val merge_into : t -> t -> unit

  val bucket_bound : int -> float
  (** Upper bound (seconds) of a bounded bucket. *)

  val cumulative : t -> (float * int) list
  (** [(bucket_bound i, observations under it)] for every bounded bucket,
      in order.  The unbounded bucket has no entry: its observations are
      counted only in [count] (Prometheus' [le="+Inf"]). *)

  val percentile : t -> float -> float
  (** Approximate: the bound of the first bucket reaching the rank,
      capped at the observed max; the max when only the unbounded bucket
      reaches it. *)

  val mean : t -> float
end

(** The cost counters of a symbolic-execution run: one record type for
    every grain the run is accounted at.  Each worker owns one record,
    shared by its executor context and its solver context; profile sites
    are records too, and worker spans and [Engine.result] read the same
    records, so the grains agree by construction. *)
module Counters : sig
  type t = {
    mutable instructions : int;  (** dynamic instructions *)
    mutable forks : int;
    mutable paths : int;         (** paths that completed (exited) *)
    mutable queries : int;       (** solver queries *)
    mutable cache_hits : int;    (** queries answered without blasting *)
    mutable solver_time : float; (** seconds in queries that blasted *)
    mutable components : int;    (** independent components queried *)
    mutable component_solves : int;  (** fresh blast + SAT runs *)
    mutable hits_canon : int;    (** per-component id-table hits *)
    mutable hits_store : int;    (** persistent store hits *)
    mutable summary_instantiated : int;
        (** calls answered by a function summary *)
    mutable summary_opaque : int;
        (** calls whose callee summary was opaque *)
  }

  val create : unit -> t
  (** All zeros. *)

  val copy : t -> t

  val add : t -> t -> unit
  (** [add dst src] adds [src] into [dst], field by field. *)

  val diff : t -> t -> t
  (** [diff a b] is a fresh [a - b], field by field. *)

  val sum : t list -> t
  (** A fresh record holding the field-wise sum. *)

  val to_list : t -> (string * float) list
  (** Every field as a (name, value) pair, in declaration order. *)
end

(** Per-(function, basic block) cost attribution for one symbolic-execution
    run.  Single-owner: one collector per worker domain, merged after the
    join.  Every site cell receives the same increments as the worker's
    {!Counters.t}, so per-site values sum to [Engine.result] totals. *)
module Profile : sig
  type t = {
    sites : (string * int, Counters.t) Hashtbl.t;
    qhist : Hist.t;   (** per-query blast+SAT latency *)
    mutable last_fn : string;
    mutable last_block : int;
    mutable last_cell : Counters.t;
  }

  val create : unit -> t

  val site : t -> fn:string -> block:int -> Counters.t
  (** The cell for (function, block), memoized for consecutive hits. *)

  val merge_into : t -> t -> unit

  val sites : t -> ((string * int) * Counters.t) list
  (** Canonical (function, block) order. *)
end

(** Per-pass compile profile: wall time and code-size delta per pass
    application, collected by [Pipeline.optimize ~prof].  The same
    record is the application's [opt] trace event. *)
module Pass : sig
  type app = {
    pa_pass : string;
    pa_fn : string;       (** ["*"] for module-level passes *)
    pa_time : float;
    pa_size_before : int;
    pa_size_after : int;
    pa_changed : bool;
  }

  type t

  val create : unit -> t

  val record : ?into:t -> ts:float -> app -> unit
  (** Record one application that started at [ts]: append it to [into]
      when given, and while {!Trace} collects emit its event (category
      [opt], named after the pass, over [ts .. ts + pa_time], args [fn],
      [size_before], [size_after] and [changed]). *)

  val apps : t -> app list
  (** Application order. *)

  type rollup = {
    pr_pass : string;
    pr_apps : int;
    pr_changed : int;
    pr_time : float;
    pr_dsize : int;
  }

  val rollup : t -> rollup list
  (** One row per pass, in first-application order. *)
end

(** Chrome [trace_event] sink (view in [chrome://tracing] / Perfetto).
    Process-global, mutex per event; collection is off until {!start}.
    Its only producers are {!Span} and {!Pass.record}. *)
module Trace : sig
  type event = {
    ev_name : string;
    ev_cat : string;
    ev_ts : float;   (** absolute seconds *)
    ev_dur : float;  (** seconds; 0 = instant event *)
    ev_tid : int;
    ev_args : (string * string) list;
  }

  val enabled : unit -> bool
  val start : unit -> unit
  val stop : unit -> unit
  val clear : unit -> unit
  val events : unit -> event list

  val to_json : unit -> string
  (** One Chrome-loadable JSON document. *)

  val write : string -> unit
  (** Write to a file; a [.jsonl] suffix selects one event per line. *)
end

(** Bounded in-memory ring of recent span/event/log records — the flight
    recorder's working memory.  Beyond [cap] the oldest record is
    evicted, unless the recording trace holds more than half the ring
    (more than [max 1 (cap / 2)] records): then that trace's oldest
    record is.  So the newest records are kept and one busy request
    cannot evict the history of the others; evictions are counted.
    Serialization to post-mortem files lives in [lib/serve] (Binfile
    discipline); obs cannot depend on the solver's Binfile. *)
module Flight : sig
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

  val default_cap : int
  val set_cap : int -> unit
  val record : record -> unit

  val records : unit -> record list
  (** Snapshot, oldest first. *)

  val length : unit -> int
  (** Records held, without a snapshot. *)

  val dropped : unit -> int
  (** Records evicted by the cap since the last {!clear}. *)

  val clear : unit -> unit
end

(** Hierarchical wall-clock spans (trace id, parent, label, interval,
    attached counters), opened at request admission in [lib/serve] and
    threaded through [Engine.config.span] down to per-query solves.
    Worker spans close with their worker's {!Counters.to_list}, so
    per-span sums equal engine totals.  Finished
    spans land in the {!Flight} ring and — when collection is on — in the
    {!Trace} sink with [trace]/[span]/[parent] args. *)
module Span : sig
  type t = {
    sp_trace : string;
    sp_id : int;
    sp_parent : int;  (** -1 = root *)
    sp_label : string;
    sp_start : float;
  }

  val fresh_trace : unit -> string
  (** A fresh process-local trace id ([local-N]); daemon requests use
      fingerprint-derived ids so duplicates share one trace. *)

  val start : ?trace:string -> ?parent:t -> string -> t
  (** Open a span.  The trace id is [trace] if given, else inherited from
      [parent], else fresh. *)

  val start_traced : ?parent:t -> string -> t option
  (** A child of [parent]; without a parent, a root span while {!Trace}
      collects (CLI [--trace]), and [None] otherwise — how a run opens
      its span whether it serves a request or a traced CLI command. *)

  val finish : ?counters:(string * float) list -> t -> unit
  (** Close the span over [sp_start .. now]; [counters] (canonically
      sorted) are its attributed costs. *)

  val emit :
    parent:t ->
    ?counters:(string * float) list ->
    ts:float ->
    dur:float ->
    string ->
    unit
  (** One-shot child span with an explicit interval (the per-query
      solver hook). *)

  val event :
    ?parent:t -> ?trace:string -> ?args:(string * string) list -> string -> unit
  (** Instant event on a span's trace (degradations, injected faults). *)
end
