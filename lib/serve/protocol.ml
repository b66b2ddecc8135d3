(** Wire protocol: framed JSON requests/responses.  See protocol.mli. *)

module Binfile = Overify_solver.Binfile

type kind = Verify | Compile | Tv | Metrics | Shutdown

let kind_name = function
  | Verify -> "verify"
  | Compile -> "compile"
  | Tv -> "tv"
  | Metrics -> "metrics"
  | Shutdown -> "shutdown"

let kind_of_name = function
  | "verify" -> Some Verify
  | "compile" -> Some Compile
  | "tv" -> Some Tv
  | "metrics" -> Some Metrics
  | "shutdown" -> Some Shutdown
  | _ -> None

type request = {
  rq_id : int;
  rq_kind : kind;
  rq_program : string;
  rq_source : string;
  rq_level : string;
  rq_input_size : int;
  rq_timeout : float;
  rq_jobs : int;
  rq_link_libc : bool;
  rq_deterministic : bool;
  rq_faults : string;
  rq_summaries : bool;
  rq_format : string;
}

let max_jobs = 64
let max_input_size = 64

let default_request =
  {
    rq_id = 0;
    rq_kind = Verify;
    rq_program = "";
    rq_source = "";
    rq_level = "OVERIFY";
    rq_input_size = 4;
    rq_timeout = 30.0;
    rq_jobs = 1;
    rq_link_libc = true;
    rq_deterministic = false;
    rq_faults = "";
    rq_summaries = false;
    rq_format = "";
  }

let request_to_json (r : request) : string =
  Printf.sprintf
    "{\"id\": %d, \"kind\": \"%s\", \"program\": \"%s\", \"source\": \
     \"%s\", \"level\": \"%s\", \"input_size\": %d, \"timeout\": %.17g, \
     \"jobs\": %d, \"link_libc\": %b, \"deterministic\": %b, \"faults\": \
     \"%s\", \"summaries\": %b, \"format\": \"%s\"}"
    r.rq_id (kind_name r.rq_kind) (Json.escape r.rq_program)
    (Json.escape r.rq_source) (Json.escape r.rq_level) r.rq_input_size
    r.rq_timeout r.rq_jobs r.rq_link_libc r.rq_deterministic
    (Json.escape r.rq_faults) r.rq_summaries (Json.escape r.rq_format)

let known_keys =
  [ "id"; "kind"; "program"; "source"; "level"; "input_size"; "timeout";
    "jobs"; "link_libc"; "deterministic"; "faults"; "summaries"; "format" ]

let request_of_json (j : Json.t) : (request, string) result =
  match j with
  | Json.Obj kvs -> (
      match
        List.find_opt (fun (k, _) -> not (List.mem k known_keys)) kvs
      with
      | Some (k, _) -> Error (Printf.sprintf "unknown request field %S" k)
      | None -> (
          let field name conv default =
            match List.assoc_opt name kvs with
            | None -> Ok default
            | Some v -> (
                match conv v with
                | Some x -> Ok x
                | None -> Error (Printf.sprintf "bad type for field %S" name))
          in
          let ( let* ) r f = Result.bind r f in
          let* id = field "id" Json.int_ default_request.rq_id in
          let* kind_s =
            match List.assoc_opt "kind" kvs with
            | None -> Error "missing request field \"kind\""
            | Some v -> (
                match Json.str v with
                | Some s -> Ok s
                | None -> Error "bad type for field \"kind\"")
          in
          let* kind =
            match kind_of_name kind_s with
            | Some k -> Ok k
            | None -> Error (Printf.sprintf "unknown request kind %S" kind_s)
          in
          let* program = field "program" Json.str default_request.rq_program in
          let* source = field "source" Json.str default_request.rq_source in
          let* level = field "level" Json.str default_request.rq_level in
          let* input_size =
            field "input_size" Json.int_ default_request.rq_input_size
          in
          let* timeout = field "timeout" Json.num default_request.rq_timeout in
          let* jobs = field "jobs" Json.int_ default_request.rq_jobs in
          let* link_libc =
            field "link_libc" Json.bool_ default_request.rq_link_libc
          in
          let* deterministic =
            field "deterministic" Json.bool_ default_request.rq_deterministic
          in
          let* faults = field "faults" Json.str default_request.rq_faults in
          let* summaries =
            field "summaries" Json.bool_ default_request.rq_summaries
          in
          let* format = field "format" Json.str default_request.rq_format in
          if not (List.mem format [ ""; "json"; "prometheus" ]) then
            Error (Printf.sprintf "unknown format %S" format)
          else if input_size < 0 || input_size > max_input_size then
            Error (Printf.sprintf "input_size %d out of range [0, %d]"
                     input_size max_input_size)
          else if jobs < 1 || jobs > max_jobs then
            Error (Printf.sprintf "jobs %d out of range [1, %d]" jobs max_jobs)
          else if not (Float.is_finite timeout) || timeout <= 0.0 then
            Error "timeout must be a positive finite number"
          else
            Ok
              {
                rq_id = id;
                rq_kind = kind;
                rq_program = program;
                rq_source = source;
                rq_level = level;
                rq_input_size = input_size;
                rq_timeout = timeout;
                rq_jobs = jobs;
                rq_link_libc = link_libc;
                rq_deterministic = deterministic;
                rq_faults = faults;
                rq_summaries = summaries;
                rq_format = format;
              }))
  | _ -> Error "request must be a JSON object"

let fingerprint (r : request) : string =
  Digest.to_hex (Digest.string (request_to_json { r with rq_id = 0 }))

(* ---------------- framing ---------------- *)

let magic = "OVERIFY-SERVE"
let version = 1
let max_frame = 8 * 1024 * 1024
let header_len = String.length magic + 4 + 8

type frame_error =
  | Closed
  | Truncated
  | Bad_magic
  | Bad_version
  | Oversized of int
  | Corrupt
  | Timed_out
  | Idle

let frame_error_name = function
  | Closed -> "closed"
  | Truncated -> "truncated"
  | Bad_magic -> "bad_magic"
  | Bad_version -> "bad_version"
  | Oversized n -> Printf.sprintf "oversized:%d" n
  | Corrupt -> "corrupt"
  | Timed_out -> "timeout"
  | Idle -> "idle"

let write_frame fd payload =
  let bytes = Binfile.frame ~magic ~version payload in
  let len = String.length bytes in
  let buf = Bytes.unsafe_of_string bytes in
  let rec go off =
    if off >= len then true
    else
      match Unix.write fd buf off (len - off) with
      | 0 -> false
      | n -> go (off + n)
      | exception Unix.Unix_error _ -> false
  in
  go 0

(** Read exactly [want] bytes; [Ok got] may be short only at EOF.
    [deadline] (absolute) bounds the whole read: expiry before the first
    byte is [Error Idle] (a quiet connection), expiry mid-read is
    [Error Timed_out] (a slow peer stalled inside the data). *)
let really_read ?deadline fd want : (string, frame_error) result =
  let buf = Bytes.create want in
  (* wait until readable or the deadline passes; true = data (or EOF)
     is available *)
  let rec wait_readable d =
    let left = d -. Unix.gettimeofday () in
    if left <= 0.0 then false
    else
      match Unix.select [ fd ] [] [] left with
      | [], _, _ -> false
      | _ -> true
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait_readable d
      | exception Unix.Unix_error _ -> true (* let read surface the error *)
  in
  let rec go off =
    if off >= want then Ok (Bytes.to_string buf)
    else
      match deadline with
      | Some d when not (wait_readable d) ->
          if off = 0 then Error Idle else Error Timed_out
      | _ -> (
          match Unix.read fd buf off (want - off) with
          | 0 -> if off = 0 then Error Closed else Error Truncated
          | n -> go (off + n)
          | exception Unix.Unix_error
              ((Unix.ECONNRESET | Unix.EPIPE | Unix.EBADF), _, _) ->
              if off = 0 then Error Closed else Error Truncated
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
          | exception Unix.Unix_error _ -> Error Truncated)
  in
  go 0

let get_int_be s off width =
  let v = ref 0 in
  for i = 0 to width - 1 do
    v := (!v lsl 8) lor Char.code s.[off + i]
  done;
  !v

let read_frame ?(max = max_frame) ?idle_timeout ?frame_timeout fd :
    (string, frame_error) result =
  (* [idle_timeout] bounds the wait for a frame to BEGIN (its expiry,
     [Idle], means a quiet keep-alive connection — the reaper's cue);
     [frame_timeout] bounds the rest of the frame once the magic landed
     (its expiry, [Timed_out], means a slow peer parked mid-frame — the
     slowloris defence).  Both are relative seconds, both optional. *)
  let abs = Option.map (fun t -> Unix.gettimeofday () +. t) in
  (* validate the magic as soon as its bytes arrive — a peer that sent
     non-protocol garbage is answered immediately instead of both sides
     waiting for a full header that will never come *)
  let mlen = String.length magic in
  match really_read ?deadline:(abs idle_timeout) fd mlen with
  | Error _ as e -> e
  | Ok m when m <> magic -> Error Bad_magic
  | Ok _ -> (
      let deadline = abs frame_timeout in
      (* past the magic, an expiry at offset 0 is still a mid-frame
         stall, never an idle connection *)
      let demote_idle = function Error Idle -> Error Timed_out | r -> r in
      match demote_idle (really_read ?deadline fd (header_len - mlen)) with
      | Error Closed -> Error Truncated
      | Error _ as e -> e
      | Ok rest_header ->
          let header = magic ^ rest_header in
          if get_int_be header mlen 4 <> version then Error Bad_version
          else
            let plen = get_int_be header (mlen + 4) 8 in
            if plen > max then Error (Oversized plen)
            else (
              match demote_idle (really_read ?deadline fd (plen + 16)) with
              | Error Closed -> Error Truncated
              | Error _ as e -> e
              | Ok rest -> (
                  (* revalidate the reassembled frame through Binfile —
                     one parser owns the format *)
                  match Binfile.parse ~magic ~version (header ^ rest) with
                  | Some payload -> Ok payload
                  | None -> Error Corrupt)))

(* ---------------- response envelope ---------------- *)

type body = {
  b_status : string;
  b_kind : string;
  b_error : (string * string) option;
  b_retry_after_ms : int option;
      (** machine-readable backoff hint attached to the error object
          (the [overloaded] shed carries one so clients can retry at the
          pace the daemon's live latency histograms suggest) *)
  b_result : string;
}

let ok_body ~kind ~result =
  { b_status = "ok"; b_kind = kind; b_error = None; b_retry_after_ms = None;
    b_result = result }

let error_body ~kind ~err ~msg =
  { b_status = "error"; b_kind = kind; b_error = Some (err, msg);
    b_retry_after_ms = None; b_result = "null" }

let response ~id ~dedup ?(trace = "") ~elapsed_ms (b : body) : string =
  let error =
    match b.b_error with
    | None -> "null"
    | Some (k, m) ->
        Printf.sprintf "{\"kind\": \"%s\", \"message\": \"%s\"%s}"
          (Json.escape k) (Json.escape m)
          (match b.b_retry_after_ms with
          | Some ms -> Printf.sprintf ", \"retry_after_ms\": %d" ms
          | None -> "")
  in
  Printf.sprintf
    "{\"id\": %d, \"status\": \"%s\", \"kind\": \"%s\", \"dedup\": \
     \"%s\", \"trace\": \"%s\", \"elapsed_ms\": %.1f, \"error\": %s, \
     \"result\": %s}"
    id b.b_status (Json.escape b.b_kind) (Json.escape dedup)
    (Json.escape trace) elapsed_ms error b.b_result

(* ---------------- raw field extraction ---------------- *)

let extract_field (json : string) (key : string) : string option =
  match Json.member_spans json with
  | Ok spans ->
      Option.map
        (fun (start, stop) -> String.sub json start (stop - start))
        (List.assoc_opt key spans)
  | Error _ -> None
