(** Periodic run snapshots for kill/resume.

    A snapshot captures, at a quiescent point of a one-worker exploration
    (between frontier pops, when the frontier is exactly the set of
    unexplored states), everything needed to continue the run: the
    frontier, the accumulated verdicts (exits, bugs, coverage), the
    executor counters and the degradations so far.

    On-disk discipline is the same as {!Overify_solver.Store}: a
    {!Overify_solver.Binfile} frame (magic + version + length + [Marshal]
    payload + MD5 trailer) written atomically, so a crash mid-write can
    never tear the file, and a torn or stale file loads as "no
    checkpoint".  A fingerprint of (program, input size) is stored and
    checked on load — resuming against a different program silently
    starts fresh rather than merging unrelated verdicts.

    States contain hash-consed {!Bv} terms, which [Marshal] flattens into
    stale copies; [load] re-interns every term through {!Bv.rebuilder}
    and rebuilds each path condition from its re-interned conjuncts
    ({!Overify_solver.Solver.Pc.rebuild}: same conjuncts and model, every
    component dirty), so a resumed state's next query answers what the
    uninterrupted run's would. *)

type snapshot = {
  ck_paths : int;  (** completed paths at snapshot time *)
  ck_exits : (string * int64) list;
  ck_bugs : ((string * string) * string) list;
      (** (kind, function) -> smallest witness so far *)
  ck_covered : (string * int) list;
  ck_insts : int;
  ck_forks : int;
  ck_degs : (string * string * int) list;
      (** raw (kind, where, paths) degradation events *)
  ck_frontier : State.t list;  (** unexplored states, frontier order *)
}

val magic : string

val version : int
(** The snapshot frame's magic and format version.  [version] moves with
    the layout of the marshaled states, so a snapshot written before a
    change to it loads as [None] instead of being unmarshaled into the
    new types. *)

val fingerprint : Overify_ir.Ir.modul -> input_size:int -> string
(** Digest identifying what a checkpoint is a checkpoint {e of}. *)

val save : dir:string -> digest:string -> snapshot -> bool
(** Atomically write the snapshot; [false] on failure (a checkpoint
    write must never crash the run). *)

val load : dir:string -> digest:string -> snapshot option
(** Read, validate (frame + fingerprint) and re-intern; [None] when
    missing, torn, wrong-version or for a different program/config. *)

val delete : dir:string -> unit
(** Remove the snapshot (called when a run completes exploration —
    a finished run must not be "resumed" into a duplicate). *)

val file : dir:string -> string
(** The snapshot path inside [dir]. *)
