(** Structured daemon logging.  See log.mli. *)

module Obs = Overify_obs.Obs

type level = Debug | Info | Warn

let rank = function Debug -> 0 | Info -> 1 | Warn -> 2
let level_name = function Debug -> "debug" | Info -> "info" | Warn -> "warn"

let level_of_name s =
  match String.lowercase_ascii s with
  | "debug" -> Some Debug
  | "info" -> Some Info
  | "warn" | "warning" -> Some Warn
  | _ -> None

(* one line per write, whole lines only: handler threads log concurrently *)
let lock = Mutex.create ()

let line ~level:l ~trace event fields =
  let b = Buffer.create 128 in
  Buffer.add_string b
    (Printf.sprintf "{\"ts\": %.6f, \"level\": \"%s\", \"event\": \"%s\""
       (Unix.gettimeofday ()) (level_name l) (Json.escape event));
  if trace <> "" then
    Buffer.add_string b
      (Printf.sprintf ", \"trace\": \"%s\"" (Json.escape trace));
  List.iter
    (fun (k, v) ->
      Buffer.add_string b
        (Printf.sprintf ", \"%s\": \"%s\"" (Json.escape k) (Json.escape v)))
    fields;
  Buffer.add_char b '}';
  Buffer.contents b

let logf threshold ?(trace = "") l event fields =
  (* warnings reach the flight ring even when stderr is quieter *)
  if rank l >= rank Warn then
    Obs.Flight.record
      {
        Obs.Flight.fr_ts = Unix.gettimeofday ();
        fr_dur = 0.0;
        fr_trace = trace;
        fr_id = 0;
        fr_parent = -1;
        fr_kind = "log";
        fr_label = event;
        fr_counters = [];
        fr_args = fields;
      };
  if rank l >= rank threshold then begin
    let s = line ~level:l ~trace event fields in
    Mutex.lock lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock lock)
      (fun () ->
        output_string stderr s;
        output_char stderr '\n';
        flush stderr)
  end

let debug threshold ?trace event fields = logf threshold ?trace Debug event fields
let info threshold ?trace event fields = logf threshold ?trace Info event fields
let warn threshold ?trace event fields = logf threshold ?trace Warn event fields
