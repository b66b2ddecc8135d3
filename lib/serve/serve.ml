(** The verification daemon.  See serve.mli for the concurrency model. *)

module Frontend = Overify_minic.Frontend
module Costmodel = Overify_opt.Costmodel
module Pipeline = Overify_opt.Pipeline
module Engine = Overify_symex.Engine
module Tv = Overify_tv.Tv
module Vclib = Overify_vclib.Vclib
module Programs = Overify_corpus.Programs
module Printer = Overify_ir.Printer
module Ir = Overify_ir.Ir
module Store = Overify_solver.Store
module Fault = Overify_fault.Fault
module Cancel = Overify_fault.Cancel
module Obs = Overify_obs.Obs

type job = {
  jb_req : Protocol.request;
  jb_key : string;
  jb_deadline : float;
      (** absolute: admission time + [rq_timeout]; covers queue wait,
          compile, symex and solve *)
  jb_cancel : Cancel.t;
      (** deadline-armed token threaded through the engine and solver;
          the watchdog sets it explicitly on a wedged job *)
  mutable jb_watchdogged : bool;  (** watchdog already escalated on this job *)
  mutable jb_body : Protocol.body option;
      (** the answer, published by {!answer_locked} *)
}

(** The daemon.  Every mutable field, and the queue and tables, is read
    and written under [lock], the daemon's one lock.  The counters and
    telemetry behind the [metrics] op are fields here too; wall-clock
    never leaks into response bodies — the [metrics] document is
    explicitly non-deterministic. *)
type t = {
  sock_path : string;
  listen_fd : Unix.file_descr;
  st_store : Store.t;  (** in memory unless started with [cache_dir] *)
  flight_dir : string option;     (** post-mortem dumps land here *)
  log : Log.level;                (** this daemon's stderr log threshold *)
  recent_cap : int;
  save_every : int;
  queue_cap : int;                (** admission control: max queued jobs *)
  grace : float;
      (** watchdog escalation margin past a running job's deadline *)
  idle_timeout : float option;    (** reap quiet keep-alive connections *)
  frame_timeout : float option;   (** slow-peer (mid-frame) read deadline *)
  lock : Mutex.t;
  work : Condition.t;             (** executor wakeup *)
  answered : Condition.t;         (** broadcast when any job gets its answer *)
  queue : job Queue.t;
  inflight : (string, job) Hashtbl.t;
  recent : (string, Protocol.body) Hashtbl.t;
  recent_order : string Queue.t;
  started : float;
  latency : (string * Obs.Hist.t) list;
      (** request latency (admission to answer) per queued kind *)
  mutable requests : int;         (** well-formed requests accepted *)
  mutable executed : int;         (** jobs actually run by the executor *)
  mutable dedup_inflight : int;
  mutable dedup_recent : int;
  mutable malformed : int;        (** frames/JSON/requests rejected *)
  mutable errors : int;           (** responses with status=error *)
  mutable shed : int;             (** requests refused at admission (queue full) *)
  mutable cancelled : int;        (** running jobs stopped by their cancel token *)
  mutable deadline_exceeded : int;
      (** requests answered [deadline_exceeded] (queued expiries +
          cancelled runs) *)
  mutable watchdog_fired : int;   (** wedged jobs the watchdog escalated on *)
  mutable reaped : int;           (** idle connections closed by the reaper *)
  mutable degraded : int;         (** requests whose run degraded *)
  mutable flight_dumps : int;     (** flight records written *)
  mutable store_hits : int;       (** accumulated over engine runs: *)
  mutable engine_queries : int;
  mutable engine_cache_hits : int;
  mutable solver_time : float;
  mutable sum_instantiated : int;
  mutable sum_opaque : int;
  mutable sum_computed : int;
  mutable sum_cached : int;
  mutable running : job option;   (** what the executor is driving now *)
  mutable stopping : bool;
  mutable finished : bool;
  mutable conns : Unix.file_descr list;
  mutable handlers : Thread.t list;
  mutable accept_thread : Thread.t option;
  mutable exec_thread : Thread.t option;
  mutable watchdog_thread : Thread.t option;
}

let socket_path t = t.sock_path

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(** Trace id of a request, derived from its dedup fingerprint so the
    duplicates of a deduplicated request share one trace — the envelope
    stays byte-identical across [dedup] outcomes. *)
let trace_of_key key =
  "rq-" ^ String.sub key 0 (min 12 (String.length key))

(* ---------------- job execution (executor thread only) ---------------- *)

(** Add one engine run's counters to the daemon's.  Caller holds the
    lock. *)
let add_run_locked t (r : Engine.result) =
  t.store_hits <- t.store_hits + r.Engine.hits_store;
  t.engine_queries <- t.engine_queries + r.Engine.queries;
  t.engine_cache_hits <- t.engine_cache_hits + r.Engine.cache_hits;
  t.solver_time <- t.solver_time +. r.Engine.solver_time;
  t.sum_instantiated <- t.sum_instantiated + r.Engine.summary_instantiated;
  t.sum_opaque <- t.sum_opaque + r.Engine.summary_opaque;
  t.sum_computed <- t.sum_computed + r.Engine.summary_computed;
  t.sum_cached <- t.sum_cached + r.Engine.summary_cached

exception Bad_request of string

(** Execute one queued request on the executor thread.  Opens the
    request's root span (every child — compile, engine, workers, solver
    queries — inherits [trace]) and returns the body plus whether the
    run degraded, so the executor can cut a flight record. *)
let run_request t (rq : Protocol.request) ~(trace : string)
    ?(cancel : Cancel.t option) () : Protocol.body * bool =
  let kind = Protocol.kind_name rq.rq_kind in
  let span = Obs.Span.start ~trace ("request." ^ kind) in
  let degraded = ref false in
  let body =
  try
    let faults =
      if rq.rq_faults = "" then None
      else
        match Fault.parse rq.rq_faults with
        | Ok f -> Some f
        | Error msg -> raise (Bad_request ("bad faults spec: " ^ msg))
    in
    let level =
      match Costmodel.of_name rq.rq_level with
      | Some l -> l
      | None ->
          raise
            (Bad_request
               (Printf.sprintf "unknown level %S (use O0/O2/O3/OVERIFY)"
                  rq.rq_level))
    in
    let source =
      if rq.rq_program <> "" then (
        match Programs.find rq.rq_program with
        | Some p -> p.Programs.source
        | None ->
            raise
              (Bad_request
                 (Printf.sprintf "unknown corpus program %S (available: %s)"
                    rq.rq_program
                    (String.concat ", " Programs.names))))
      else if rq.rq_source <> "" then rq.rq_source
      else raise (Bad_request "request has neither \"program\" nor \"source\"")
    in
    match rq.rq_kind with
    | Protocol.Verify ->
        let cspan = Obs.Span.start ~parent:span "compile" in
        let m =
          (Pipeline.optimize level
             (Vclib.frontend ~link_libc:rq.rq_link_libc level source))
            .Pipeline.modul
        in
        Obs.Span.finish cspan;
        let r =
          Engine.run
            ~config:
              {
                Engine.default_config with
                Engine.input_size = rq.rq_input_size;
                timeout = rq.rq_timeout;
                searcher = `Parallel rq.rq_jobs;
                summaries = rq.rq_summaries;
                faults;
                store = Some t.st_store;
                span = Some span;
                cancel;
              }
            m
        in
        degraded := r.Engine.degradations <> [];
        with_lock t (fun () ->
            if !degraded then t.degraded <- t.degraded + 1;
            add_run_locked t r);
        Protocol.ok_body ~kind
          ~result:
            (Engine.result_to_json ~deterministic:rq.rq_deterministic r)
    | Protocol.Compile ->
        let cspan = Obs.Span.start ~parent:span "compile" in
        let r =
          Pipeline.optimize level
            (Vclib.frontend ~link_libc:rq.rq_link_libc level source)
        in
        Obs.Span.finish cspan;
        let m = r.Pipeline.modul in
        let size =
          List.fold_left (fun acc f -> acc + Ir.func_size f) 0 m.Ir.funcs
        in
        Protocol.ok_body ~kind
          ~result:
            (Printf.sprintf
               "{\"level\": \"%s\", \"functions\": %d, \"size\": %d, \
                \"ir\": \"%s\"}"
               (Json.escape level.Costmodel.name)
               (List.length m.Ir.funcs) size
               (Json.escape (Printer.modul_to_string m)))
    | Protocol.Tv ->
        let cspan = Obs.Span.start ~parent:span "compile" in
        let m = Vclib.frontend ~link_libc:rq.rq_link_libc level source in
        Obs.Span.finish cspan;
        let vspan = Obs.Span.start ~parent:span "tv.validate" in
        let config =
          {
            Tv.default_config with
            Engine.input_size = min rq.rq_input_size 4;
            timeout = rq.rq_timeout;
            store = Some t.st_store;
            cancel;
            span = Some vspan;
          }
        in
        let (_, report) =
          Fun.protect
            ~finally:(fun () -> Obs.Span.finish vspan)
            (fun () -> Tv.validate ~config level m)
        in
        with_lock t (fun () ->
            List.iter
              (fun (rc : Tv.record) ->
                Option.iter (add_run_locked t) rc.Tv.outcome.Tv.run)
              report.Tv.records);
        Protocol.ok_body ~kind
          ~result:
            (Printf.sprintf
               "{\"level\": \"%s\", \"passes\": %d, \"counterexamples\": \
                %d, \"inconclusive\": %d, \"sound\": %b}"
               (Json.escape report.Tv.level)
               (List.length report.Tv.records)
               (List.length (Tv.counterexamples report))
               (List.length (Tv.inconclusives report))
               (Tv.counterexamples report = []))
    | Protocol.Metrics | Protocol.Shutdown ->
        (* handled inline by the connection handler, never queued *)
        assert false
  with
  | Bad_request msg -> Protocol.error_body ~kind ~err:"bad_request" ~msg
  | Cancel.Cancelled reason ->
      (* the engine converts cancellation into a degraded result itself;
         a cancelled tv validation raises, and is answered here *)
      Protocol.error_body ~kind ~err:"deadline_exceeded" ~msg:reason
  | Fault.Killed msg ->
      (* the injected analogue of SIGKILL: in one-shot mode it ends the
         process; in service mode it may only end the request *)
      Protocol.error_body ~kind ~err:"killed"
        ~msg:("injected kill contained by daemon: " ^ msg)
  | Frontend.Compile_error msg | Failure msg ->
      Protocol.error_body ~kind ~err:"compile_error" ~msg
  | Invalid_argument msg -> Protocol.error_body ~kind ~err:"bad_request" ~msg
  | Stack_overflow ->
      Protocol.error_body ~kind ~err:"internal" ~msg:"stack overflow"
  | e ->
      Protocol.error_body ~kind ~err:"internal" ~msg:(Printexc.to_string e)
  in
  (match body.Protocol.b_error with
  | Some (err, msg) ->
      Obs.Span.event ~parent:span
        ~args:[ ("error", err); ("message", msg) ]
        "request.error"
  | None -> ());
  Obs.Span.finish span
    ~counters:
      [
        ("degraded", if !degraded then 1.0 else 0.0);
        ("error", if body.Protocol.b_status = "error" then 1.0 else 0.0);
      ];
  (body, !degraded)

(* ---------------- dedup + executor ---------------- *)

(** Remember a finished job's answer, evicting the oldest past
    [recent_cap].  A key is queued at most once: a job runs only when its
    key is in neither [recent] nor [inflight], and the key leaves
    [recent] only when its one queue entry is popped. *)
let add_recent t key body =
  Hashtbl.replace t.recent key body;
  Queue.add key t.recent_order;
  while Queue.length t.recent_order > t.recent_cap do
    Hashtbl.remove t.recent (Queue.pop t.recent_order)
  done

(** Publish a job's answer and wake its waiters.  Caller holds the
    lock. *)
let answer_locked t job body =
  job.jb_body <- Some body;
  Condition.broadcast t.answered

(** Block until [job] is answered. *)
let wait_job t (job : job) : Protocol.body =
  with_lock t (fun () ->
      while job.jb_body = None do
        Condition.wait t.answered t.lock
      done;
      Option.get job.jb_body)

(** The structured deadline envelope: an error of kind [deadline_exceeded]
    that still carries the engine's partial result (with its
    ["deadline_exceeded"] degradation entry) when the run got far enough
    to produce one. *)
let deadline_body ~kind ?result ~msg () =
  let b = Protocol.error_body ~kind ~err:"deadline_exceeded" ~msg in
  match result with
  | Some r -> { b with Protocol.b_result = r }
  | None -> b

(** Deadline and overload answers describe the daemon's load at one
    instant, not the request's semantics — caching them would make a
    retry (which dedup makes safe precisely so clients can retry) replay
    a stale refusal. *)
let transient_error (body : Protocol.body) =
  match body.Protocol.b_error with
  | Some (("deadline_exceeded" | "overloaded" | "unavailable"), _) -> true
  | _ -> false

(** Answer a job whose deadline passed before the engine ever saw it. *)
let expire_job t job ~(where : string) =
  let kind = Protocol.kind_name job.jb_req.Protocol.rq_kind in
  let trace = trace_of_key job.jb_key in
  Log.warn t.log ~trace "request.deadline" [ ("kind", kind); ("where", where) ];
  with_lock t (fun () ->
      answer_locked t job
        (deadline_body ~kind ~msg:("deadline expired while " ^ where) ()))

(** Cut a flight record of the span/event ring for [reason], count it,
    and log its path through [logged] (default: at warn) or the failure
    at warn.  A no-op without a [flight_dir]. *)
let dump_flight t ?(logged = Log.warn) ~reason ~trace () =
  match t.flight_dir with
  | None -> ()
  | Some dir -> (
      match Flight.dump ~dir ~reason ~trace () with
      | Some path ->
          with_lock t (fun () -> t.flight_dumps <- t.flight_dumps + 1);
          logged t.log ~trace "flight.dump" [ ("reason", reason); ("path", path) ]
      | None -> Log.warn t.log ~trace "flight.dump_failed" [ ("reason", reason) ])

let executor_loop t =
  let rec loop () =
    Mutex.lock t.lock;
    while Queue.is_empty t.queue && not t.stopping do
      Condition.wait t.work t.lock
    done;
    if Queue.is_empty t.queue then (* stopping, fully drained *)
      Mutex.unlock t.lock
    else begin
      let job = Queue.pop t.queue in
      if Unix.gettimeofday () > job.jb_deadline then begin
        (* expired in the queue between watchdog ticks: answered here at
           the pop, but never run *)
        Hashtbl.remove t.inflight job.jb_key;
        t.deadline_exceeded <- t.deadline_exceeded + 1;
        Mutex.unlock t.lock;
        expire_job t job ~where:"queued";
        loop ()
      end
      else begin
        t.running <- Some job;
        Mutex.unlock t.lock;
        let trace = trace_of_key job.jb_key in
        let (body, degraded) =
          try run_request t job.jb_req ~trace ~cancel:job.jb_cancel ()
          with e ->
            (* the executor must survive anything a request throws *)
            ( Protocol.error_body
                ~kind:(Protocol.kind_name job.jb_req.Protocol.rq_kind)
                ~err:"internal" ~msg:(Printexc.to_string e),
              false )
        in
        (* a fired token (deadline self-cancel or watchdog) outranks the
           run's own answer: the caller's deadline has passed, so the
           envelope is the structured deadline error — the partial
           engine result (and its degradation entry) rides along *)
        let cancelled = Cancel.cancelled job.jb_cancel in
        let body =
          if not cancelled then body
          else
            deadline_body
              ~kind:(Protocol.kind_name job.jb_req.Protocol.rq_kind)
              ~result:body.Protocol.b_result
              ~msg:(Cancel.reason job.jb_cancel)
              ()
        in
        let save_now =
          with_lock t (fun () ->
              t.running <- None;
              t.executed <- t.executed + 1;
              if cancelled then begin
                t.cancelled <- t.cancelled + 1;
                t.deadline_exceeded <- t.deadline_exceeded + 1
              end;
              Hashtbl.remove t.inflight job.jb_key;
              if not (transient_error body) then add_recent t job.jb_key body;
              t.executed mod t.save_every = 0)
        in
        (* persist warm-store growth outside the daemon lock (a no-op for
           the in-memory store); Store.save is atomic and internally
           synchronized, so it may race concurrent engine lookups and
           external readers without tearing the file *)
        if save_now then Store.save t.st_store;
        (* flight recorder: a degraded run, contained kill/crash or
           internal error cuts a post-mortem dump of the span/event ring *)
        let dump_reason =
          match body.Protocol.b_error with
          | Some ("killed", _) -> Some "killed"
          | Some ("internal", _) -> Some "internal"
          | _ -> if degraded then Some "degraded" else None
        in
        Option.iter (fun reason -> dump_flight t ~reason ~trace ()) dump_reason;
        (* answered last: a waiter sees the saved store and the dump *)
        with_lock t (fun () -> answer_locked t job body);
        loop ()
      end
    end
  in
  loop ()

(** The [retry_after_ms] hint on an overload shed: the queue would have
    to drain [depth + 1] slots before a retry could run, and the live
    per-kind latency histogram says how long a slot takes (p50; 100 ms a
    slot until the histogram has data).  Clamped to [25 ms, 60 s] so the
    hint is never a busy-loop nor a give-up.  Caller holds the lock. *)
let retry_after_ms_locked t (kind : string) : int =
  let slot_ms =
    match List.assoc_opt kind t.latency with
    | Some h when h.Obs.Hist.count > 0 -> Obs.Hist.percentile h 0.5 *. 1000.0
    | _ -> 100.0
  in
  let slots = Queue.length t.queue + 1 in
  let ms = int_of_float (ceil (slot_ms *. float_of_int slots)) in
  max 25 (min 60_000 ms)

(** Resolve a request, whose {!Protocol.fingerprint} is [key], to a
    (dedup label, body).  Blocks until the body is available;
    connection-handler context. *)
let submit t ~key (rq : Protocol.request) : string * Protocol.body =
  let action =
    with_lock t (fun () ->
        match Hashtbl.find_opt t.recent key with
        | Some body ->
            t.dedup_recent <- t.dedup_recent + 1;
            `Recent body
        | None -> (
            match Hashtbl.find_opt t.inflight key with
            | Some job ->
                t.dedup_inflight <- t.dedup_inflight + 1;
                `Join job
            | None ->
                if t.stopping then `Unavailable
                else if Queue.length t.queue >= t.queue_cap then begin
                  (* admission control: shed rather than grow the queue
                     without bound — the answer costs nothing downstream
                     (never touches the executor) and tells the client
                     exactly when to come back *)
                  t.shed <- t.shed + 1;
                  `Shed
                    (retry_after_ms_locked t
                       (Protocol.kind_name rq.Protocol.rq_kind))
                end
                else begin
                  let now = Unix.gettimeofday () in
                  let deadline = now +. rq.Protocol.rq_timeout in
                  let job =
                    {
                      jb_req = rq;
                      jb_key = key;
                      jb_deadline = deadline;
                      jb_cancel = Cancel.create ~deadline ();
                      jb_watchdogged = false;
                      jb_body = None;
                    }
                  in
                  Hashtbl.replace t.inflight key job;
                  Queue.add job t.queue;
                  Condition.signal t.work;
                  `Run job
                end))
  in
  match action with
  | `Recent body -> ("recent", body)
  | `Join job -> ("inflight", wait_job t job)
  | `Run job -> ("miss", wait_job t job)
  | `Shed ms ->
      let kind = Protocol.kind_name rq.Protocol.rq_kind in
      Log.warn t.log "request.shed"
        [ ("kind", kind); ("retry_after_ms", string_of_int ms) ];
      ( "none",
        {
          (Protocol.error_body ~kind ~err:"overloaded"
             ~msg:"queue full; retry after the hinted backoff")
          with
          Protocol.b_retry_after_ms = Some ms;
        } )
  | `Unavailable ->
      ( "none",
        Protocol.error_body
          ~kind:(Protocol.kind_name rq.Protocol.rq_kind)
          ~err:"unavailable" ~msg:"daemon is shutting down" )

(* ---------------- watchdog (wedge recovery) ---------------- *)

(** The watchdog tick: expel queued jobs whose deadline already passed
    (answered without ever touching the executor) and escalate on a
    wedged running job — one that blew through deadline + grace, meaning
    the engine's cooperative check points are not being reached (e.g. a
    stuck solver).  Escalation: dump a flight record, then cancel the
    job's token so the wedge (which polls the token) unblocks; the
    executor answers it like any cancelled run and keeps serving. *)
let watchdog_tick t =
  let now = Unix.gettimeofday () in
  let (expired, wedged) =
    with_lock t (fun () ->
        let expired = ref [] in
        let keep = Queue.create () in
        Queue.iter
          (fun job ->
            if now > job.jb_deadline then begin
              Hashtbl.remove t.inflight job.jb_key;
              t.deadline_exceeded <- t.deadline_exceeded + 1;
              expired := job :: !expired
            end
            else Queue.add job keep)
          t.queue;
        Queue.clear t.queue;
        Queue.transfer keep t.queue;
        let wedged =
          match t.running with
          | Some job
            when now > job.jb_deadline +. t.grace && not job.jb_watchdogged ->
              job.jb_watchdogged <- true;
              t.watchdog_fired <- t.watchdog_fired + 1;
              Some job
          | _ -> None
        in
        (List.rev !expired, wedged))
  in
  List.iter (fun job -> expire_job t job ~where:"queued") expired;
  match wedged with
  | None -> ()
  | Some job ->
      let trace = trace_of_key job.jb_key in
      (* dump first: the record must capture the wedged state, not the
         recovery *)
      dump_flight t ~reason:"watchdog" ~trace ();
      Log.warn t.log ~trace "watchdog.cancel"
        [
          ("kind", Protocol.kind_name job.jb_req.Protocol.rq_kind);
          ("grace_s", Printf.sprintf "%.3f" t.grace);
        ];
      Cancel.cancel job.jb_cancel
        ~reason:"watchdog: job ran past deadline + grace"

let watchdog_loop t =
  let rec loop () =
    let done_ =
      with_lock t (fun () ->
          (* keep ticking through shutdown until the executor is idle —
             a job that wedges during drain still needs the escalation *)
          t.stopping && Queue.is_empty t.queue && t.running = None)
    in
    if done_ then ()
    else begin
      watchdog_tick t;
      Thread.delay 0.05;
      loop ()
    end
  in
  loop ()

(* ---------------- metrics (inline, no queue) ---------------- *)

let hist_json (h : Obs.Hist.t) : string =
  Printf.sprintf
    "{\"count\": %d, \"mean_ms\": %.3f, \"p50_ms\": %.3f, \"p95_ms\": \
     %.3f, \"p99_ms\": %.3f, \"max_ms\": %.3f}"
    h.Obs.Hist.count
    (Obs.Hist.mean h *. 1000.0)
    (Obs.Hist.percentile h 0.5 *. 1000.0)
    (Obs.Hist.percentile h 0.95 *. 1000.0)
    (Obs.Hist.percentile h 0.99 *. 1000.0)
    (h.Obs.Hist.max *. 1000.0)

(** One daemon counter: its key in the metrics document, its printed
    value, and its Prometheus [(type, name)] when it is exported. *)
type metric_row = {
  m_key : string;
  m_value : string;
  m_prom : (string * string) option;
}

(** Every daemon counter, in document order.  Both renderings below walk
    this list, so a counter is named once.  Caller holds the lock. *)
let metric_rows t : metric_row list =
  let row ?prom m_key m_value = { m_key; m_value; m_prom = prom } in
  let n = string_of_int in
  let counter name = ("counter", name) and gauge name = ("gauge", name) in
  [
    row "uptime_s"
      (Printf.sprintf "%.3f" (Unix.gettimeofday () -. t.started))
      ~prom:(gauge "overify_uptime_seconds");
    row "queue_depth" (n (Queue.length t.queue))
      ~prom:(gauge "overify_queue_depth");
    row "inflight" (n (Hashtbl.length t.inflight));
    row "recent" (n (Hashtbl.length t.recent));
    row "requests" (n t.requests) ~prom:(counter "overify_requests_total");
    row "executed" (n t.executed) ~prom:(counter "overify_executed_total");
    row "dedup_inflight" (n t.dedup_inflight);
    row "dedup_recent" (n t.dedup_recent);
    row "dedup_hits"
      (n (t.dedup_inflight + t.dedup_recent))
      ~prom:(counter "overify_dedup_hits_total");
    row "malformed" (n t.malformed) ~prom:(counter "overify_malformed_total");
    row "errors" (n t.errors) ~prom:(counter "overify_errors_total");
    row "requests_shed" (n t.shed)
      ~prom:(counter "overify_requests_shed_total");
    row "cancelled" (n t.cancelled) ~prom:(counter "overify_cancelled_total");
    row "deadline_exceeded" (n t.deadline_exceeded)
      ~prom:(counter "overify_deadline_exceeded_total");
    row "watchdog_fired" (n t.watchdog_fired)
      ~prom:(counter "overify_watchdog_fired_total");
    row "idle_reaped" (n t.reaped) ~prom:(counter "overify_idle_reaped_total");
    row "degraded" (n t.degraded) ~prom:(counter "overify_degraded_total");
    row "flight_dumps" (n t.flight_dumps)
      ~prom:(counter "overify_flight_dumps_total");
    row "flight_records" (n (Obs.Flight.length ()));
    row "flight_dropped" (n (Obs.Flight.dropped ()));
    row "store_entries" (n (Store.length t.st_store))
      ~prom:(gauge "overify_store_entries");
    row "store_loaded" (n (Store.loaded t.st_store));
    row "store_hits" (n t.store_hits) ~prom:(counter "overify_store_hits_total");
    row "engine_queries" (n t.engine_queries)
      ~prom:(counter "overify_engine_queries_total");
    row "engine_cache_hits" (n t.engine_cache_hits)
      ~prom:(counter "overify_engine_cache_hits_total");
    row "solver_time_s" (Printf.sprintf "%.6f" t.solver_time)
      ~prom:(counter "overify_solver_time_seconds_total");
    row "summary_instantiated" (n t.sum_instantiated);
    row "summary_opaque" (n t.sum_opaque);
    row "summary_computed" (n t.sum_computed);
    row "summary_cached" (n t.sum_cached);
  ]

(** The metrics document: every row, then the per-kind latency
    histograms, fixed key order. *)
let metrics_doc t : string =
  with_lock t (fun () ->
      let field (k, v) = Printf.sprintf "\"%s\": %s" k v in
      let rows = List.map (fun r -> (r.m_key, r.m_value)) (metric_rows t) in
      let lat = List.map (fun (k, h) -> (k, hist_json h)) t.latency in
      Printf.sprintf "{%s, \"latency_ms\": {%s}}"
        (String.concat ", " (List.map field rows))
        (String.concat ", " (List.map field lat)))

(** The exported rows and the latency histograms in Prometheus text
    exposition format. *)
let prometheus t : string =
  let b = Buffer.create 2048 in
  with_lock t (fun () ->
      List.iter
        (fun r ->
          match r.m_prom with
          | Some (ty, name) ->
              Printf.bprintf b "# TYPE %s %s\n%s %s\n" name ty name r.m_value
          | None -> ())
        (metric_rows t);
      Buffer.add_string b
        "# TYPE overify_request_latency_seconds histogram\n";
      List.iter
        (fun (k, (h : Obs.Hist.t)) ->
          List.iter
            (fun (bound, cum) ->
              Printf.bprintf b
                "overify_request_latency_seconds_bucket{kind=\"%s\",le=\"%g\"} \
                 %d\n"
                k bound cum)
            (Obs.Hist.cumulative h);
          Printf.bprintf b
            "overify_request_latency_seconds_bucket{kind=\"%s\",le=\"+Inf\"} \
             %d\n"
            k h.Obs.Hist.count;
          Printf.bprintf b
            "overify_request_latency_seconds_sum{kind=\"%s\"} %.6f\n" k
            h.Obs.Hist.sum;
          Printf.bprintf b
            "overify_request_latency_seconds_count{kind=\"%s\"} %d\n" k
            h.Obs.Hist.count)
        t.latency);
  Buffer.contents b

let metrics_body t ~(format : string) : Protocol.body =
  let result =
    if format = "prometheus" then "\"" ^ Json.escape (prometheus t) ^ "\""
    else metrics_doc t
  in
  Protocol.ok_body ~kind:"metrics" ~result

let initiate_stop t =
  let first =
    with_lock t (fun () ->
        if t.stopping then false
        else begin
          t.stopping <- true;
          Condition.broadcast t.work;
          true
        end)
  in
  if first then begin
    (* unblock the accept loop: close() alone does not wake a thread
       blocked in accept() on Linux — shutdown() does *)
    (try Unix.shutdown t.listen_fd Unix.SHUTDOWN_ALL
     with Unix.Unix_error _ -> ());
    try Unix.close t.listen_fd with Unix.Unix_error _ -> ()
  end

(* ---------------- connection handling ---------------- *)

let bump_malformed t =
  with_lock t (fun () -> t.malformed <- t.malformed + 1)

let bump_request t = with_lock t (fun () -> t.requests <- t.requests + 1)

let note_status t (body : Protocol.body) =
  if body.Protocol.b_status = "error" then
    with_lock t (fun () -> t.errors <- t.errors + 1)

let handle_conn t fd =
  let respond body_json = ignore (Protocol.write_frame fd body_json) in
  let protocol_error err msg =
    bump_malformed t;
    Log.warn t.log "request.malformed" [ ("error", err); ("message", msg) ];
    let body = Protocol.error_body ~kind:"protocol" ~err ~msg in
    note_status t body;
    respond (Protocol.response ~id:0 ~dedup:"none" ~elapsed_ms:0.0 body)
  in
  let rec loop () =
    match
      Protocol.read_frame ?idle_timeout:t.idle_timeout
        ?frame_timeout:t.frame_timeout fd
    with
    | Error Protocol.Closed -> ()
    | Error Protocol.Idle ->
        (* the reaper: a quiet keep-alive connection owed no answer —
           close it silently to free the handler thread *)
        with_lock t (fun () -> t.reaped <- t.reaped + 1);
        Log.info t.log "conn.idle_reaped" []
    | Error ((Protocol.Truncated | Protocol.Corrupt | Protocol.Bad_magic
             | Protocol.Bad_version | Protocol.Oversized _
             | Protocol.Timed_out) as e) ->
        (* the stream is no longer frame-synchronized (a slow peer that
           stalls mid-frame is the slowloris case, answered
           [bad_frame:timeout]): answer (if the peer can still read) and
           drop the connection, daemon intact *)
        protocol_error "bad_frame" (Protocol.frame_error_name e)
    | Ok payload -> (
        match Json.parse payload with
        | Error msg ->
            protocol_error "bad_json" msg;
            loop () (* frame boundaries intact: keep serving *)
        | Ok j -> (
            match Protocol.request_of_json j with
            | Error msg ->
                protocol_error "bad_request" msg;
                loop ()
            | Ok rq -> (
                bump_request t;
                let kind = Protocol.kind_name rq.Protocol.rq_kind in
                let t0 = Unix.gettimeofday () in
                let answer ?(trace = "") dedup body =
                  note_status t body;
                  let elapsed_ms =
                    if rq.Protocol.rq_deterministic then 0.0
                    else (Unix.gettimeofday () -. t0) *. 1000.0
                  in
                  Log.info t.log ~trace "request.done"
                    [
                      ("kind", kind);
                      ("dedup", dedup);
                      ("status", body.Protocol.b_status);
                    ];
                  respond
                    (Protocol.response ~id:rq.Protocol.rq_id ~dedup ~trace
                       ~elapsed_ms body)
                in
                match rq.Protocol.rq_kind with
                | Protocol.Metrics ->
                    answer "none"
                      (metrics_body t ~format:rq.Protocol.rq_format);
                    loop ()
                | Protocol.Shutdown ->
                    answer "none"
                      (Protocol.ok_body ~kind:"shutdown"
                         ~result:"{\"stopping\": true}");
                    initiate_stop t;
                    loop ()
                | _ ->
                    (* request admission: the span every child (queue
                       wait, compile, engine, solver) hangs off *)
                    let key = Protocol.fingerprint rq in
                    let trace = trace_of_key key in
                    Log.debug t.log ~trace "request.admit" [ ("kind", kind) ];
                    let aspan = Obs.Span.start ~trace ("serve." ^ kind) in
                    let (dedup, body) = submit t ~key rq in
                    Obs.Span.finish aspan
                      ~counters:
                        [
                          ( "dedup_hit",
                            if dedup = "miss" || dedup = "none" then 0.0
                            else 1.0 );
                        ];
                    (* sheds/unavailable ([dedup = "none"]) never ran:
                       folding their ~0-cost answers into the latency
                       histogram would poison the retry_after_ms hint *)
                    if dedup <> "none" then
                      with_lock t (fun () ->
                          match List.assoc_opt kind t.latency with
                          | Some h ->
                              Obs.Hist.observe h (Unix.gettimeofday () -. t0)
                          | None -> ());
                    answer ~trace dedup body;
                    loop ())))
  in
  (try loop () with _ -> ());
  (try Unix.close fd with Unix.Unix_error _ -> ());
  with_lock t (fun () ->
      t.conns <- List.filter (fun c -> c != fd) t.conns)

let accept_loop t =
  let rec go () =
    match Unix.accept t.listen_fd with
    | (fd, _) ->
        let keep =
          with_lock t (fun () ->
              if t.stopping then false
              else begin
                t.conns <- fd :: t.conns;
                true
              end)
        in
        if keep then begin
          let th = Thread.create (handle_conn t) fd in
          with_lock t (fun () -> t.handlers <- th :: t.handlers)
        end
        else (try Unix.close fd with Unix.Unix_error _ -> ());
        go ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception Unix.Unix_error _ -> ()  (* listener closed: shutting down *)
    | exception _ -> ()
  in
  go ()

(* ---------------- lifecycle ---------------- *)

(* per start, so a second daemon never unlinks the first one's socket *)
let socket_seq = Atomic.make 0

let default_socket () =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "overify-serve-%d-%d.sock" (Unix.getpid ())
       (Atomic.fetch_and_add socket_seq 1))

let start ?socket ?cache_dir ?(recent_cap = 128) ?(save_every = 32)
    ?queue_cap ?(grace = 2.0) ?(idle_timeout = 600.0) ?(frame_timeout = 30.0)
    ?obs:(_ : bool option) ?flight_dir ?(log_level = Log.Warn) () : t
    =
  (* a dead peer must fail the write, not the process *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let sock_path =
    match socket with Some s -> s | None -> default_socket ()
  in
  let st_store =
    match cache_dir with
    | Some dir -> Store.load ~dir ()
    | None -> Store.in_memory ()
  in
  (if Sys.file_exists sock_path then
     try Unix.unlink sock_path with Unix.Unix_error _ -> ());
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.bind listen_fd (Unix.ADDR_UNIX sock_path)
   with e ->
     (try Unix.close listen_fd with Unix.Unix_error _ -> ());
     raise e);
  Unix.listen listen_fd 64;
  let t =
    {
      sock_path;
      listen_fd;
      st_store;
      flight_dir;
      log = log_level;
      recent_cap = max 1 recent_cap;
      save_every = max 1 save_every;
      queue_cap = (match queue_cap with Some c -> max 0 c | None -> max_int);
      grace = max 0.0 grace;
      idle_timeout = (if idle_timeout <= 0.0 then None else Some idle_timeout);
      frame_timeout =
        (if frame_timeout <= 0.0 then None else Some frame_timeout);
      lock = Mutex.create ();
      work = Condition.create ();
      answered = Condition.create ();
      queue = Queue.create ();
      inflight = Hashtbl.create 16;
      recent = Hashtbl.create 64;
      recent_order = Queue.create ();
      started = Unix.gettimeofday ();
      latency =
        [
          ("verify", Obs.Hist.create ());
          ("compile", Obs.Hist.create ());
          ("tv", Obs.Hist.create ());
        ];
      requests = 0;
      executed = 0;
      dedup_inflight = 0;
      dedup_recent = 0;
      malformed = 0;
      errors = 0;
      shed = 0;
      cancelled = 0;
      deadline_exceeded = 0;
      watchdog_fired = 0;
      reaped = 0;
      degraded = 0;
      flight_dumps = 0;
      store_hits = 0;
      engine_queries = 0;
      engine_cache_hits = 0;
      solver_time = 0.0;
      sum_instantiated = 0;
      sum_opaque = 0;
      sum_computed = 0;
      sum_cached = 0;
      running = None;
      stopping = false;
      finished = false;
      conns = [];
      handlers = [];
      accept_thread = None;
      exec_thread = None;
      watchdog_thread = None;
    }
  in
  t.exec_thread <- Some (Thread.create executor_loop t);
  t.watchdog_thread <- Some (Thread.create watchdog_loop t);
  t.accept_thread <- Some (Thread.create accept_loop t);
  Log.info t.log "daemon.start"
    ([ ("socket", sock_path) ]
    @ (match cache_dir with Some d -> [ ("cache_dir", d) ] | None -> [])
    @ match flight_dir with Some d -> [ ("flight_dir", d) ] | None -> []);
  t

let wait t =
  (match t.accept_thread with Some th -> Thread.join th | None -> ());
  (* the accept loop only exits when the listener is gone; make sure the
     executor sees the stop flag even on an unexpected listener error *)
  with_lock t (fun () ->
      if not t.stopping then begin
        t.stopping <- true;
        Condition.broadcast t.work
      end);
  (match t.exec_thread with Some th -> Thread.join th | None -> ());
  (match t.watchdog_thread with Some th -> Thread.join th | None -> ());
  (* every job has a body by now, but a handler may still be {e writing}
     its response — shut down only the read side, so blocked reads wake
     with EOF while in-flight response writes complete *)
  let conns = with_lock t (fun () -> t.conns) in
  List.iter
    (fun fd ->
      try Unix.shutdown fd Unix.SHUTDOWN_RECEIVE with Unix.Unix_error _ -> ())
    conns;
  let handlers = with_lock t (fun () -> t.handlers) in
  List.iter (fun th -> try Thread.join th with _ -> ()) handlers;
  let first =
    with_lock t (fun () ->
        if t.finished then false
        else begin
          t.finished <- true;
          true
        end)
  in
  if first then begin
    Store.save t.st_store;
    (* the daemon is going away: cut a final flight record so a
       post-mortem sees the last requests even on a clean shutdown *)
    dump_flight t ~logged:Log.info ~reason:"shutdown" ~trace:"" ();
    Log.info t.log "daemon.stop" [ ("executed", string_of_int t.executed) ];
    try Unix.unlink t.sock_path with Unix.Unix_error _ -> ()
  end

let stop t =
  initiate_stop t;
  wait t
