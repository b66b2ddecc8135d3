(** Structured, leveled daemon logging: one JSONL line per event on
    stderr, carrying the request's trace id so log lines join the span
    tree and the response envelope.

    Format: [{"ts": <unix seconds>, "level": "...", "event": "...",
    "trace": "rq-...", <extra string fields>}] — machine-greppable, no
    ad-hoc prints.

    There is no process-wide threshold: every call names the threshold
    it is filtered by.  A daemon passes its own, set at start from
    [serve --log] ([debug] | [info] | [warn]; default [warn]), so
    several daemons in one process each log at their own level.  No
    environment variable sets it.

    Warnings are additionally appended to the in-memory
    {!Overify_obs.Obs.Flight} ring (as [kind = "log"] records) whatever
    the stderr threshold, so a post-mortem flight record carries the
    daemon's recent complaints next to its spans. *)

type level = Debug | Info | Warn

val level_name : level -> string

val level_of_name : string -> level option
(** Accepts ["debug"], ["info"], ["warn"]/["warning"] (any case). *)

val debug : level -> ?trace:string -> string -> (string * string) list -> unit
val info : level -> ?trace:string -> string -> (string * string) list -> unit
val warn : level -> ?trace:string -> string -> (string * string) list -> unit
(** [info threshold ~trace event fields] emits one JSONL line when
    [Info] is at or above [threshold].  [event] is a stable dotted name
    (["daemon.start"], ["request.done"], ["flight.dump"]); [fields] are
    extra string key/values. *)
