(** Framed atomic binary files — the shared on-disk discipline for
    {!Store} and the engine's checkpoints.

    Frame layout: magic string, 4-byte big-endian version, 8-byte
    big-endian payload length, payload bytes, 16-byte MD5 digest of the
    payload.  [read] validates every field, so a truncated file (partial
    write, killed process) or a flipped byte is detected and rejected —
    not just bad magic.  Writes go to a temp file and [Sys.rename] into
    place, so a reader never observes a half-written frame.  The module
    also holds the temp-directory helper of tests, benchmarks and the
    chaos harness ({!with_temp_dir}). *)

val frame : magic:string -> version:int -> string -> string
(** Wrap a payload in a frame. *)

val parse : magic:string -> version:int -> string -> string option
(** Unwrap and validate a frame; [None] on any mismatch (magic, version,
    truncation, length, digest). *)

val write_atomic : path:string -> string -> bool
(** Write bytes to [path] via temp-file + rename; [false] on failure
    (never raises). Creates parent directories as needed. *)

val write : path:string -> magic:string -> version:int -> string -> bool
(** [frame] + [write_atomic]. *)

val read : path:string -> magic:string -> version:int -> string option
(** [parse] the whole file at [path]; [None] also when it is missing or
    unreadable. *)

val mkdirs : string -> unit
(** [mkdir -p]; never raises. *)

val rm_rf : string -> unit
(** Remove a file, or a directory and everything under it; best effort,
    never raises. *)

val with_temp_dir : string -> (string -> 'a) -> 'a
(** [with_temp_dir prefix f] runs [f] on a fresh empty directory under
    the temp directory whose name starts with [prefix], and removes the
    directory afterwards, also when [f] raises. *)
