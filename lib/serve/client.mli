(** Client side of the serve protocol: a blocking connection to an
    [overify serve] daemon.  One request in flight per connection; open
    several connections for concurrency (perfbench's serve-mix does). *)

type t

val connect : string -> t
(** Connect to the daemon's Unix socket.  Raises [Unix.Unix_error] if the
    daemon is not listening. *)

val close : t -> unit
(** Idempotent. *)

val rpc : t -> Protocol.request -> (string, Protocol.frame_error) result
(** Send one request and block for its response payload (the raw JSON
    envelope text).  [Error] means the transport failed, not that the
    request failed — request-level failures come back as a structured
    [status = "error"] envelope. *)

val send_payload : t -> string -> bool
(** Frame and send arbitrary payload bytes (e.g. invalid JSON) — for
    protocol testing. *)

val send_bytes : t -> string -> bool
(** Send raw bytes with {e no} framing (garbage, truncated or corrupt
    frames) — for protocol testing. *)

val read_response : t -> (string, Protocol.frame_error) result
(** Block for one response frame. *)

val rpc_retry :
  socket:string ->
  ?retries:int ->
  ?backoff_ms:int ->
  Protocol.request ->
  (string, string) result
(** One-shot request with client-side retry (what [overify client
    --retries/--backoff] uses): a {e fresh} connection per attempt,
    retrying on connect failure (daemon not up yet), transport errors
    and [overloaded] sheds.  Between attempts sleeps a jittered
    exponential backoff ([backoff_ms] × 2{^attempt} × U[0.5,1.5), capped
    at 10 s); an [overloaded] envelope's [retry_after_ms] hint acts as a
    floor on the sleep, so the client never hammers a shedding daemon
    faster than it asked.  [retries] (default 0 — a single attempt, no
    retry) bounds {e additional} attempts.  [Ok] is the final envelope
    text (which may still be a non-retryable [status = "error"]);
    [Error] is a human-readable transport description after the last
    attempt failed. *)
