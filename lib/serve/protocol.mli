(** Wire protocol of the verification service ([overify serve]).

    {2 Framing}

    Each message (request or response) travels as one {!Overify_solver.Binfile}
    frame: magic string, 4-byte big-endian version, 8-byte big-endian
    payload length, payload bytes, 16-byte MD5 digest of the payload —
    the same discipline as the solver store and the engine checkpoints,
    so a truncated or bit-flipped frame is detected, never misparsed.
    {!read_frame} additionally rejects frames whose declared length
    exceeds [max_frame] {e before} reading the payload, so an adversarial
    length field cannot make the daemon allocate unboundedly.

    {2 Payloads}

    The payload is one JSON document.  Requests are parsed with {!Json};
    responses are emitted with a fixed key order (goldenable — see
    DESIGN.md "Service architecture"):

    {v
      {"id": .., "status": "ok"|"error", "kind": .., "dedup":
       "miss"|"inflight"|"recent"|"none", "trace": .., "elapsed_ms": ..,
       "error": null|{"kind": .., "message": ..[, "retry_after_ms": ..]},
       "result": ..}
    v}

    The [retry_after_ms] member appears only on errors that carry a
    backoff hint (the [overloaded] shed): a machine-readable pacing
    suggestion derived from the daemon's live per-kind latency
    histograms and current queue depth.

    The [result] of a [verify] request is byte-for-byte the document
    [Engine.result_to_json] produces, so the daemon and the one-shot CLI
    can be differentially tested. *)

type kind = Verify | Compile | Tv | Metrics | Shutdown

val kind_name : kind -> string
val kind_of_name : string -> kind option

type request = {
  rq_id : int;              (** echoed in the response; not part of dedup *)
  rq_kind : kind;
  rq_program : string;      (** corpus program name; [""] = use [rq_source] *)
  rq_source : string;       (** inline MiniC source *)
  rq_level : string;        (** optimization level name, e.g. ["O0"] *)
  rq_input_size : int;
  rq_timeout : float;
  rq_jobs : int;
      (** worker domains for this request's engine run, in
          [[1, max_jobs]] *)
  rq_link_libc : bool;
  rq_deterministic : bool;  (** zero wall-clock (and reuse-dependent) fields *)
  rq_faults : string;       (** fault-injection spec ([Fault.parse]); [""] = none *)
  rq_summaries : bool;
      (** compositional mode: instantiate cached function summaries at
          call sites ([Engine.config.summaries]).  The daemon's warm
          shared store makes summaries cross-request: a later request for
          an edited program reuses every summary outside the edit's
          callgraph cone. *)
  rq_format : string;
      (** result encoding for [Metrics] requests: [""]/["json"] = the
          structured metrics document, ["prometheus"] = a JSON string
          holding Prometheus text exposition.  Ignored by other kinds. *)
}

val max_jobs : int
(** Most worker domains one run may ask for (64); the CLI's [--jobs]
    shares the bound. *)

val max_input_size : int
(** Most symbolic input bytes one run may ask for (64); the CLI's
    [--size] shares the bound. *)

val default_request : request
(** [Verify], no program, level OVERIFY, 4 bytes, 30 s, 1 job. *)

val request_to_json : request -> string
(** Fixed key order; [request_of_json] inverts it exactly. *)

val request_of_json : Json.t -> (request, string) result
(** Validates kinds, field types and rejects unknown keys — a structured
    [bad_request] error, never an exception. *)

val fingerprint : request -> string
(** Dedup key: the MD5 of {!request_to_json} with [rq_id] set to 0, so
    every field but the id counts ([%.17g] prints the timeout exactly).
    Two requests with equal fingerprints receive byte-identical response
    bodies. *)

(** {2 Framing} *)

val magic : string
val version : int

val max_frame : int
(** Default frame-size cap (bytes) for {!read_frame}. *)

type frame_error =
  | Closed          (** clean EOF before any byte of a frame *)
  | Truncated       (** EOF mid-frame *)
  | Bad_magic
  | Bad_version
  | Oversized of int  (** declared payload length exceeded the cap *)
  | Corrupt         (** length/digest validation failed *)
  | Timed_out
      (** a slow peer stalled mid-frame past [frame_timeout] (the
          slowloris defence; answered as [bad_frame:timeout]) *)
  | Idle
      (** no frame began within [idle_timeout] — a quiet keep-alive
          connection the reaper may close without an answer *)

val frame_error_name : frame_error -> string

val write_frame : Unix.file_descr -> string -> bool
(** Frame and send a payload; [false] on any write failure (peer gone). *)

val read_frame :
  ?max:int ->
  ?idle_timeout:float ->
  ?frame_timeout:float ->
  Unix.file_descr ->
  (string, frame_error) result
(** Read and validate one frame.  Never raises; socket errors map to
    [Closed]/[Truncated].  [idle_timeout] (relative seconds) bounds the
    wait for the frame's first bytes — expiry is [Idle]; [frame_timeout]
    bounds the remainder once the magic has arrived — expiry is
    [Timed_out].  Omitted timeouts (the default, and what {!Client}
    uses) block indefinitely as before. *)

(** {2 Response envelope} *)

type body = {
  b_status : string;                   (** ["ok"] or ["error"] *)
  b_kind : string;                     (** request kind name *)
  b_error : (string * string) option;  (** (kind, message) when status=error *)
  b_retry_after_ms : int option;
      (** backoff hint emitted inside the error object (overload sheds) *)
  b_result : string;                   (** raw JSON value text; ["null"] if none *)
}

val ok_body : kind:string -> result:string -> body

val error_body : kind:string -> err:string -> msg:string -> body
(** [b_retry_after_ms] defaults to [None]; the overload shed sets it with
    a record update. *)

val response :
  id:int -> dedup:string -> ?trace:string -> elapsed_ms:float -> body -> string
(** The fixed-key-order envelope documented above.  [trace] is the
    request's trace id (fingerprint-derived, so dedup'd duplicates share
    it and byte-compare equal); [""] for control ops. *)

val extract_field : string -> string -> string option
(** [extract_field json key] returns the raw bytes of a top-level field's
    value, at the span {!Json.member_spans} reads; [None] when the document
    does not parse or has no such field.  Used to pull the embedded
    [result] document out of a response for byte-exact comparison without
    reprinting it. *)
