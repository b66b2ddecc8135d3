(** The verification service: a long-running daemon behind a Unix socket
    ([overify serve]).

    Concurrency model (DESIGN.md "Service architecture"): one accept
    thread, one handler thread per connection, and a {e single} executor
    thread that runs every compile/verify/tv job in submission order.
    Jobs are serialized because the engine owns process-global symbolic
    state ([Bv.reset] per run); within a job, exploration still shards
    across OCaml domains via the engine's [`Parallel] scheduler
    ([rq_jobs]).  Handler threads never touch engine state — they only
    frame, parse, deduplicate and wait.

    Deduplication: requests are keyed by {!Protocol.fingerprint} (every
    field but the id), computed once per request.  A request whose key
    is already executing waits for the in-flight job's answer, which is
    published under the daemon's one lock and signalled on one
    daemon-wide condition; a key completed recently is answered from a
    bounded FIFO cache.  Either way the response body is byte-identical
    to the first computation's — only the envelope's [id] and [dedup]
    fields differ.

    Warm state: the daemon owns one {!Overify_solver.Store.t} for its
    whole lifetime and injects it into every engine run
    ([Engine.config.store]), so request N pays only marginal solver cost;
    the store doubles as the cross-request canonical-query cache.  With
    [cache_dir] it is saved (atomically) every few jobs and at shutdown;
    without, it lives in memory for the daemon's lifetime.

    Reliability: a crashing request — injected [Fault.Killed], a compile
    error, a malformed fault spec — produces a structured error body and
    never takes the daemon down.  Malformed, truncated or oversized
    frames get a structured [protocol] error (when the peer is still
    readable) and close only that connection.

    Overload and cancellation (DESIGN.md "Overload and cancellation
    model"): every admitted job carries an absolute deadline
    (admission time + [rq_timeout], covering queue wait, compile, symex
    and solve) materialized as a deadline-armed
    {!Overify_fault.Cancel.t} threaded through [Engine.config.cancel]
    down to the per-worker solver contexts, and into every tv
    obligation.  A run that outlives its deadline stops at the next
    cooperative check point and is answered with a structured
    [deadline_exceeded] error that still carries the partial engine
    result (including its ["deadline_exceeded"] degradation entry); a
    tv validation answers it with [result: null].  Admission control: when [queue_cap] jobs are
    already queued, new work is shed with an [overloaded] error whose
    [retry_after_ms] hint is derived from the live per-kind latency
    histograms and queue depth; shed requests never touch the executor.
    Queued jobs whose deadline expires are likewise answered without
    running.  A watchdog thread escalates on {e wedged} jobs — running
    past deadline + [grace], meaning cooperative checks are not being
    reached (e.g. an injected [stall@N] stuck solver): it dumps a
    flight record, force-cancels the token (which the stall polls) and
    the daemon keeps serving.  Because the handler threads are
    synchronous (one frame in, one response out), each connection has
    at most one request in flight by construction — the per-connection
    in-flight cap is 1.  Slow peers are bounded too: a connection that
    stalls mid-frame past [frame_timeout] is answered
    [bad_frame:timeout] and dropped (the slowloris defence), and a
    connection idle past [idle_timeout] is reaped silently.  Transient
    answers ([deadline_exceeded], [overloaded], [unavailable]) never
    enter the recent-dedup cache, so a retry re-executes; the warm
    store's entries are individually complete, so a
    cancelled-then-retried run is byte-identical to an uncancelled one
    under [--deterministic].

    Observability (DESIGN.md "Observability"): every admitted request
    gets a fingerprint-derived trace id (echoed in the envelope's
    [trace] field) and a root span threaded through
    [Engine.config.span] down to per-query solves; the [metrics] op
    returns the daemon's counters (queue depth, dedup/store/summary hit
    counters, uptime, degradation counts) and per-kind latency
    histograms as JSON or Prometheus text, both rendered from one table
    of rows; and a bounded
    in-memory ring of recent spans/events is dumped to a post-mortem
    flight record ([overify postmortem]) whenever a request degrades,
    a kill/crash surfaces, or the daemon shuts down. *)

type t

val start :
  ?socket:string ->
  ?cache_dir:string ->
  ?recent_cap:int ->
  ?save_every:int ->
  ?queue_cap:int ->
  ?grace:float ->
  ?idle_timeout:float ->
  ?frame_timeout:float ->
  ?obs:bool ->
  ?flight_dir:string ->
  ?log_level:Log.level ->
  unit ->
  t
(** Bind, listen and spawn the accept + executor threads; returns once
    the socket accepts connections.  [socket] defaults to a fresh path
    under the temp directory, named after the process id and a
    per-process sequence number, so daemons in one process never share
    it.  A file already at [socket] is tried first: if a daemon accepts a
    connection there, [start] raises
    [Unix.Unix_error (EADDRINUSE, "Serve.start", socket)] and leaves it
    alone; otherwise the file is stale and is replaced.  [cache_dir]
    loads the warm store from that
    directory and persists it there, so it survives daemon restarts
    (default: the store lives in memory and is never written);
    [recent_cap] bounds the recently-completed cache (default 128);
    [save_every] is the cadence, in executed jobs, of saving a
    [cache_dir] store (default 32; it is also saved at [stop]).

    [queue_cap] bounds the executor queue — admission beyond it sheds
    with [overloaded] + [retry_after_ms] (default: unbounded, the
    pre-admission-control behaviour).  [grace] is the watchdog's
    escalation margin past a running job's deadline (default 2 s).
    [idle_timeout] (default 600 s) reaps connections with no frame in
    flight; [frame_timeout] (default 30 s) bounds a frame's remainder
    once its first bytes arrived.  A zero or negative timeout disables
    that bound.

    [obs] is ignored.  It is kept only because [perfbench/perfbench.ml]
    passes [~obs:false], and files under [perfbench/] may not change
    until the repository benchmark is next revised.
    [flight_dir] enables the flight recorder: post-mortem dumps are
    written there (created if missing) on degraded requests, contained
    kills/crashes, internal errors and shutdown.  [log_level] is this
    daemon's stderr log threshold (default [Warn]); other daemons in the
    process keep their own. *)

val socket_path : t -> string

val wait : t -> unit
(** Block until the daemon stops (a [shutdown] request, or {!stop} from
    another thread), then drain the executor, answer outstanding waiters,
    save the store and clean up.  Idempotent with {!stop}. *)

val stop : t -> unit
(** Initiate shutdown and {!wait}.  Idempotent. *)
