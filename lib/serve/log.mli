(** Structured, leveled daemon logging: one JSONL line per event on
    stderr, carrying the request's trace id so log lines join the span
    tree and the response envelope.

    Format: [{"ts": <unix seconds>, "level": "...", "event": "...",
    "trace": "rq-...", <extra string fields>}] — machine-greppable, no
    ad-hoc prints.

    The threshold is [warn] until {!set_level} changes it; the daemon
    sets it once, at start, from [serve --log] ([debug] | [info] |
    [warn]).  No environment variable sets it.

    Warnings are additionally appended to the in-memory
    {!Overify_obs.Obs.Flight} ring (as [kind = "log"] records) whatever
    the stderr threshold, so a post-mortem flight record carries the
    daemon's recent complaints next to its spans. *)

type level = Debug | Info | Warn

val level_name : level -> string

val level_of_name : string -> level option
(** Accepts ["debug"], ["info"], ["warn"]/["warning"] (any case). *)

val set_level : level -> unit
val level : unit -> level

val enabled : level -> bool
(** Would a line at this level reach stderr? *)

val debug : ?trace:string -> string -> (string * string) list -> unit
val info : ?trace:string -> string -> (string * string) list -> unit
val warn : ?trace:string -> string -> (string * string) list -> unit
(** [info ~trace event fields] emits one JSONL line.  [event] is a
    stable dotted name (["daemon.start"], ["request.done"],
    ["flight.dump"]); [fields] are extra string key/values. *)
