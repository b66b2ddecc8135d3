(** Trace replay against the verification daemon (the [bench serve]
    workload and the CI serve smoke).

    Builds a deterministic synthetic request trace — programs × levels ×
    budgets, verify/compile/tv kinds, deliberate duplicates (to exercise
    dedup) and deliberately bad requests (unknown programs, bad levels,
    raw garbage payloads) — replays it over N concurrent client
    connections against an in-process or external daemon, and reports
    throughput, latency percentiles and the daemon's own counters. *)

module Serve = Overify_serve.Serve
module Client = Overify_serve.Client
module Protocol = Overify_serve.Protocol
module Json = Overify_serve.Json

(* ---------------- synthetic trace ---------------- *)

(** A trace entry: a well-formed request, or raw bytes to ship as a
    frame payload (invalid JSON — the daemon must answer with a
    structured error and keep the connection). *)
type entry = Request of Protocol.request | Garbage of string

(** Deterministic ersatz randomness — replays must be reproducible. *)
let lcg seed =
  let state = ref (seed land 0x3fffffff) in
  fun bound ->
    state := ((!state * 1103515245) + 12345) land 0x3fffffff;
    !state mod bound

(** [n] entries over the corpus: ~1/2 verify, ~1/4 compile, ~1/8 tv,
    with every 4th entry a duplicate of an earlier one and every 16th
    deliberately malformed. *)
let synthetic_trace ?(seed = 1) ?(programs = [ "wc"; "cat"; "cksum" ])
    ?(levels = [ "O0"; "O2"; "OVERIFY" ]) n : entry list =
  let rand = lcg seed in
  let pick xs = List.nth xs (rand (List.length xs)) in
  let fresh i =
    let kind =
      match rand 8 with
      | 0 -> Protocol.Tv
      | 1 | 2 -> Protocol.Compile
      | _ -> Protocol.Verify
    in
    Request
      {
        Protocol.default_request with
        Protocol.rq_id = i;
        rq_kind = kind;
        rq_program = pick programs;
        rq_level = pick levels;
        rq_input_size = 1 + rand 2;
        rq_timeout = 20.0;
        rq_jobs = (if rand 4 = 0 then 2 else 1);
        rq_deterministic = true;
      }
  in
  let entries = ref [] in
  for i = 0 to n - 1 do
    let e =
      if i mod 16 = 5 then
        (* malformed: bad JSON, unknown program, or unknown level *)
        match rand 3 with
        | 0 -> Garbage "{\"kind\": \"verify\", truncated"
        | 1 ->
            Request
              {
                Protocol.default_request with
                Protocol.rq_id = i;
                rq_program = "no-such-program";
                rq_deterministic = true;
              }
        | _ ->
            Request
              {
                Protocol.default_request with
                Protocol.rq_id = i;
                rq_program = "wc";
                rq_level = "O7";
                rq_deterministic = true;
              }
      else if i mod 4 = 3 && !entries <> [] then
        (* duplicate an earlier well-formed entry (fresh id, same
           fingerprint) — the dedup layer's bread and butter *)
        match
          List.find_opt
            (function Request _ -> true | Garbage _ -> false)
            !entries
        with
        | Some (Request r) -> Request { r with Protocol.rq_id = i }
        | _ -> fresh i
      else fresh i
    in
    entries := e :: !entries
  done;
  List.rev !entries

(* ---------------- replay ---------------- *)

type reply = {
  rp_entry : int;          (** index in the trace *)
  rp_latency_ms : float;
  rp_status : string;      (** envelope status, or ["transport"] *)
  rp_dedup : string;
  rp_json : string;        (** raw envelope (empty on transport failure) *)
}

type summary = {
  s_requests : int;
  s_ok : int;
  s_errors : int;              (** structured error envelopes (expected for
                                   the trace's malformed entries) *)
  s_transport_failures : int;  (** connections that died — 0 in a healthy run *)
  s_wall_s : float;
  s_throughput_rps : float;
  s_p50_ms : float;
  s_p95_ms : float;
  s_p99_ms : float;
  s_max_ms : float;
  s_metrics_json : string;     (** the daemon's metrics after the replay *)
  s_replies : reply list;      (** trace order *)
}

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else sorted.(min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1))

(** Replay [trace] over [clients] concurrent connections (entry [i] goes
    to connection [i mod clients]); returns replies in trace order plus
    the daemon's post-replay metrics. *)
let replay ~socket ?(clients = 4) (trace : entry list) : summary =
  let entries = Array.of_list trace in
  let n = Array.length entries in
  let replies = Array.make n None in
  let clients = max 1 clients in
  let worker c =
    match Client.connect socket with
    | exception _ ->
        for i = 0 to n - 1 do
          if i mod clients = c then
            replies.(i) <-
              Some
                { rp_entry = i; rp_latency_ms = 0.0; rp_status = "transport";
                  rp_dedup = "none"; rp_json = "" }
        done
    | conn ->
        for i = 0 to n - 1 do
          if i mod clients = c then begin
            let t0 = Unix.gettimeofday () in
            let answer =
              match entries.(i) with
              | Request rq -> Client.rpc conn rq
              | Garbage bytes ->
                  if Client.send_payload conn bytes then
                    Client.read_response conn
                  else Error Protocol.Closed
            in
            let latency = (Unix.gettimeofday () -. t0) *. 1000.0 in
            let reply =
              match answer with
              | Ok json ->
                  let get k =
                    match Protocol.extract_field json k with
                    | Some v -> (
                        match Json.parse v with
                        | Ok (Json.Str s) -> s
                        | _ -> String.trim v)
                    | None -> ""
                  in
                  { rp_entry = i; rp_latency_ms = latency;
                    rp_status = get "status"; rp_dedup = get "dedup";
                    rp_json = json }
              | Error _ ->
                  { rp_entry = i; rp_latency_ms = latency;
                    rp_status = "transport"; rp_dedup = "none"; rp_json = "" }
            in
            replies.(i) <- Some reply
          end
        done;
        Client.close conn
  in
  let t0 = Unix.gettimeofday () in
  let threads =
    List.init clients (fun c -> Thread.create worker c)
  in
  List.iter Thread.join threads;
  let wall = Unix.gettimeofday () -. t0 in
  let metrics_json =
    match Client.connect socket with
    | exception _ -> "{}"
    | conn ->
        let r =
          match
            Client.rpc conn
              {
                Protocol.default_request with
                Protocol.rq_kind = Protocol.Metrics;
              }
          with
          | Ok json -> (
              match Protocol.extract_field json "result" with
              | Some v -> v
              | None -> "{}")
          | Error _ -> "{}"
        in
        Client.close conn;
        r
  in
  let replies =
    Array.to_list replies
    |> List.map (function
         | Some r -> r
         | None ->
             { rp_entry = -1; rp_latency_ms = 0.0; rp_status = "transport";
               rp_dedup = "none"; rp_json = "" })
  in
  let count p = List.length (List.filter p replies) in
  let lat =
    replies
    |> List.filter (fun r -> r.rp_status <> "transport")
    |> List.map (fun r -> r.rp_latency_ms)
    |> Array.of_list
  in
  Array.sort compare lat;
  {
    s_requests = n;
    s_ok = count (fun r -> r.rp_status = "ok");
    s_errors = count (fun r -> r.rp_status = "error");
    s_transport_failures = count (fun r -> r.rp_status = "transport");
    s_wall_s = wall;
    s_throughput_rps = (if wall > 0.0 then float_of_int n /. wall else 0.0);
    s_p50_ms = percentile lat 0.50;
    s_p95_ms = percentile lat 0.95;
    s_p99_ms = percentile lat 0.99;
    s_max_ms = (if Array.length lat = 0 then 0.0 else lat.(Array.length lat - 1));
    s_metrics_json = metrics_json;
    s_replies = replies;
  }

(** Pull an integer counter out of the daemon-metrics document. *)
let stat summary name =
  match Json.parse summary.s_metrics_json with
  | Ok j -> (
      match Option.bind (Json.mem j name) Json.int_ with
      | Some v -> v
      | None -> 0)
  | Error _ -> 0

let summary_to_json ?(label = "serve") s =
  Printf.sprintf
    "{\"label\": \"%s\", \"requests\": %d, \"ok\": %d, \"errors\": %d, \
     \"transport_failures\": %d, \"wall_s\": %.3f, \"throughput_rps\": \
     %.1f, \"latency_ms\": {\"p50\": %.2f, \"p95\": %.2f, \"p99\": %.2f, \
     \"max\": %.2f}, \"daemon\": %s}"
    (Json.escape label) s.s_requests s.s_ok s.s_errors s.s_transport_failures
    s.s_wall_s s.s_throughput_rps s.s_p50_ms s.s_p95_ms s.s_p99_ms s.s_max_ms
    (if s.s_metrics_json = "" then "{}" else s.s_metrics_json)

(** Start an in-process daemon, replay a synthetic trace, stop it.
    Returns the summary and whether the run was healthy: zero transport
    failures, every entry answered, daemon counters consistent, and —
    the point of the batching layer — at least one dedup hit. *)
let run ?(n = 48) ?(clients = 4) ?seed () : summary * bool =
  let daemon = Serve.start () in
  let finally () = Serve.stop daemon in
  Fun.protect ~finally (fun () ->
      let trace = synthetic_trace ?seed n in
      let s = replay ~socket:(Serve.socket_path daemon) ~clients trace in
      let healthy =
        s.s_transport_failures = 0
        && s.s_ok + s.s_errors = s.s_requests
        && s.s_errors > 0 (* the malformed entries must be *answered* *)
        && stat s "dedup_hits" > 0
        && stat s "executed" <= stat s "requests"
      in
      (s, healthy))

(* ---------------- overload chaos ---------------- *)

(** Outcome of the overload schedule ({!run_overload}): a deterministic
    flood against a capacity-1 daemon wedged by an injected [stall@1]
    stuck solver, followed by an accepted stream, a slowloris probe and
    an idle connection. *)
type overload = {
  o_requests : int;            (** framed requests offered (flood + stream
                                   + occupier + filler) *)
  o_ok : int;
  o_overloaded : int;          (** client-observed sheds *)
  o_deadline : int;            (** client-observed [deadline_exceeded] *)
  o_other_errors : int;
  o_transport_failures : int;  (** must be 0: shed ≠ dropped *)
  o_hint_ms_min : int;         (** smallest [retry_after_ms] on a shed *)
  o_accepted_lat : float array;  (** sorted latencies (ms) of [ok] answers *)
  o_watchdog_reason : bool;    (** the wedged job's answer names the watchdog *)
  o_slowloris_answered : bool; (** mid-frame staller got [bad_frame:timeout] *)
  o_idle_reaped : bool;        (** quiet connection closed with no bytes *)
  o_metrics_json : string;       (** daemon counters after the schedule *)
}

let envelope_error json =
  match Protocol.extract_field json "error" with
  | Some err when String.length err > 0 && err.[0] = '{' -> (
      match Protocol.extract_field err "kind" with
      | Some k -> (
          match Json.parse k with Ok (Json.Str s) -> Some s | _ -> None)
      | None -> None)
  | _ -> None

let envelope_error_message json =
  match Protocol.extract_field json "error" with
  | Some err when String.length err > 0 && err.[0] = '{' -> (
      match Protocol.extract_field err "message" with
      | Some m -> (
          match Json.parse m with Ok (Json.Str s) -> Some s | _ -> None)
      | None -> None)
  | _ -> None

let retry_hint json =
  match Protocol.extract_field json "error" with
  | Some err when String.length err > 0 && err.[0] = '{' ->
      Option.bind
        (Protocol.extract_field err "retry_after_ms")
        (fun v -> int_of_string_opt (String.trim v))
  | _ -> None

(** One request over a fresh connection; [Error] is a transport failure. *)
let rpc_once ~socket rq =
  match Client.connect socket with
  | exception _ -> Error ()
  | conn ->
      let r = Client.rpc conn rq in
      Client.close conn;
      (match r with Ok json -> Ok json | Error _ -> Error ())

let fetch_metrics ~socket =
  match
    rpc_once ~socket
      { Protocol.default_request with Protocol.rq_kind = Protocol.Metrics }
  with
  | Ok json ->
      Option.value ~default:"{}" (Protocol.extract_field json "result")
  | Error () -> "{}"

let statj json name =
  match Json.parse json with
  | Ok j -> Option.value ~default:0 (Option.bind (Json.mem j name) Json.int_)
  | Error _ -> 0

(** Poll the daemon's metrics until [p] holds (or ~5 s passed). *)
let wait_for ~socket p =
  let rec go tries =
    if tries = 0 then false
    else if p (fetch_metrics ~socket) then true
    else begin
      Thread.delay 0.01;
      go (tries - 1)
    end
  in
  go 500

let verify_rq ~id ~timeout ?(faults = "") () =
  {
    Protocol.default_request with
    Protocol.rq_id = id;
    rq_kind = Protocol.Verify;
    rq_program = "wc";
    rq_level = "O0";
    rq_input_size = 1;
    rq_timeout = timeout;
    rq_deterministic = true;
    rq_faults = faults;
  }

(** Distinct-fingerprint cheap probes: the fingerprint hashes
    [rq_timeout], so an epsilon per probe defeats dedup without changing
    behaviour. *)
let compile_rq ~id ~epsilon =
  {
    Protocol.default_request with
    Protocol.rq_id = id;
    rq_kind = Protocol.Compile;
    rq_program = "wc";
    rq_level = "O0";
    rq_timeout = 29.0 -. (0.001 *. float_of_int epsilon);
    rq_deterministic = true;
  }

(** The overload schedule, deterministic by construction:

    1. wedge the single executor with a [stall@1] verify (the injected
       stuck solver polls its cancellation token, so only the watchdog
       frees it — deadline [occupier_timeout] + [grace] later);
    2. fill the capacity-1 queue with one long-deadline verify;
    3. flood [probes] distinct-fingerprint requests — with the executor
       wedged and the queue full, {e every} one must shed with
       [overloaded] + [retry_after_ms], exactly [probes] sheds;
    4. the watchdog fires: the occupier is answered [deadline_exceeded]
       (watchdog reason), the filler then runs normally;
    5. an accepted stream of [accepted] requests measures served
       latency after recovery;
    6. a slowloris connection (magic bytes, then silence) must be
       answered [bad_frame:timeout]; an idle connection must be reaped
       with no answer.

    Healthy iff: zero transport failures, every request answered or
    shed, sheds reconcile exactly with the daemon's [requests_shed],
    the watchdog fired exactly once and the daemon kept serving. *)
let run_overload ?(probes = 8) ?(accepted = 12) ?(occupier_timeout = 2.0)
    ?(grace = 0.5) ?flight_dir () : overload * bool =
  let daemon = Serve.start ~queue_cap:1 ~grace ?flight_dir () in
  let socket = Serve.socket_path daemon in
  let finally () = Serve.stop daemon in
  Fun.protect ~finally (fun () ->
      let ok = ref 0
      and overloaded = ref 0
      and deadline = ref 0
      and other = ref 0
      and transport = ref 0
      and hint_min = ref max_int
      and lats = ref [] in
      let classify ?(lat = 0.0) = function
        | Error () -> incr transport
        | Ok json -> (
            match envelope_error json with
            | None ->
                incr ok;
                lats := lat :: !lats
            | Some "overloaded" ->
                incr overloaded;
                (match retry_hint json with
                | Some h -> hint_min := min !hint_min h
                | None -> hint_min := min !hint_min 0)
            | Some "deadline_exceeded" -> incr deadline
            | Some _ -> incr other)
      in
      (* 1. wedge the executor *)
      let occupier = ref (Error ()) in
      let occ_thread =
        Thread.create
          (fun () ->
            occupier :=
              rpc_once ~socket
                (verify_rq ~id:1 ~timeout:occupier_timeout ~faults:"stall@1" ()))
          ()
      in
      let running =
        wait_for ~socket (fun s ->
            statj s "inflight" >= 1 && statj s "queue_depth" = 0
            && statj s "executed" = 0)
      in
      (* 2. fill the queue *)
      let filler = ref (Error ()) in
      let fill_thread =
        Thread.create
          (fun () ->
            filler := rpc_once ~socket (verify_rq ~id:2 ~timeout:30.0 ()))
          ()
      in
      let queued = wait_for ~socket (fun s -> statj s "queue_depth" >= 1) in
      (* 3. flood: every probe must shed *)
      for i = 0 to probes - 1 do
        classify (rpc_once ~socket (compile_rq ~id:(10 + i) ~epsilon:i))
      done;
      let sheds_exact = !overloaded = probes in
      (* 4. watchdog recovery *)
      Thread.join occ_thread;
      Thread.join fill_thread;
      classify !occupier;
      classify !filler;
      let watchdog_reason =
        match !occupier with
        | Ok json -> (
            match envelope_error_message json with
            | Some m ->
                String.length m >= 8 && String.sub m 0 8 = "watchdog"
            | None -> false)
        | Error () -> false
      in
      (* 5. accepted stream: the daemon must still serve *)
      for i = 0 to accepted - 1 do
        let t0 = Unix.gettimeofday () in
        let r = rpc_once ~socket (compile_rq ~id:(100 + i) ~epsilon:(100 + i)) in
        classify ~lat:((Unix.gettimeofday () -. t0) *. 1000.0) r
      done;
      let metrics = fetch_metrics ~socket in
      (* 6. slowloris + idle, against a short-fuse daemon *)
      let d2 = Serve.start ~idle_timeout:0.25 ~frame_timeout:0.25 () in
      let s2 = Serve.socket_path d2 in
      let slowloris_answered =
        match Client.connect s2 with
        | exception _ -> false
        | conn ->
            let r =
              if Client.send_bytes conn Protocol.magic then
                match Client.read_response conn with
                | Ok json -> (
                    match envelope_error_message json with
                    | Some "timeout" -> true
                    | _ -> false)
                | Error _ -> false
              else false
            in
            Client.close conn;
            r
      in
      let idle_reaped =
        match Client.connect s2 with
        | exception _ -> false
        | conn ->
            (* no bytes sent: the reaper must close silently — EOF, not
               an answer *)
            let r =
              match Client.read_response conn with
              | Error Protocol.Closed -> true
              | _ -> false
            in
            Client.close conn;
            r
      in
      let metrics2 = fetch_metrics ~socket:s2 in
      Serve.stop d2;
      let requests = probes + accepted + 2 in
      let lat = Array.of_list !lats in
      Array.sort compare lat;
      let o =
        {
          o_requests = requests;
          o_ok = !ok;
          o_overloaded = !overloaded;
          o_deadline = !deadline;
          o_other_errors = !other;
          o_transport_failures = !transport;
          o_hint_ms_min = (if !hint_min = max_int then 0 else !hint_min);
          o_accepted_lat = lat;
          o_watchdog_reason = watchdog_reason;
          o_slowloris_answered = slowloris_answered;
          o_idle_reaped = idle_reaped;
          o_metrics_json = metrics;
        }
      in
      let healthy =
        running && queued && sheds_exact
        && o.o_transport_failures = 0
        && o.o_ok + o.o_overloaded + o.o_deadline + o.o_other_errors
           = o.o_requests
        && o.o_ok = accepted + 1 (* the filler ran after recovery *)
        && o.o_deadline = 1 (* the wedged occupier *)
        && o.o_overloaded = statj metrics "requests_shed"
        && o.o_hint_ms_min >= 25
        && statj metrics "watchdog_fired" = 1
        && statj metrics "cancelled" >= 1
        && statj metrics "deadline_exceeded" >= 1
        && watchdog_reason && slowloris_answered && idle_reaped
        && statj metrics2 "idle_reaped" >= 1
      in
      (o, healthy))

let overload_to_json ?(label = "overload") (o : overload) =
  let pct q =
    let n = Array.length o.o_accepted_lat in
    if n = 0 then 0.0
    else
      o.o_accepted_lat.(min (n - 1)
                          (int_of_float (ceil (q *. float_of_int n)) - 1))
  in
  Printf.sprintf
    "{\"label\": \"%s\", \"requests\": %d, \"ok\": %d, \"overloaded\": %d, \
     \"deadline_exceeded\": %d, \"other_errors\": %d, \
     \"transport_failures\": %d, \"shed_rate\": %.3f, \"retry_hint_ms_min\": \
     %d, \"accepted_latency_ms\": {\"p50\": %.2f, \"p95\": %.2f, \"p99\": \
     %.2f}, \"watchdog_reason\": %b, \"slowloris_answered\": %b, \
     \"idle_reaped\": %b, \"daemon\": %s}"
    (Json.escape label) o.o_requests o.o_ok o.o_overloaded o.o_deadline
    o.o_other_errors o.o_transport_failures
    (float_of_int o.o_overloaded /. float_of_int (max 1 o.o_requests))
    o.o_hint_ms_min (pct 0.50) (pct 0.95) (pct 0.99) o.o_watchdog_reason
    o.o_slowloris_answered o.o_idle_reaped
    (if o.o_metrics_json = "" then "{}" else o.o_metrics_json)
