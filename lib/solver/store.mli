(** Persistent cross-run solver store (the [--cache-dir] layer).

    Maps canonical component keys ({!Canon.renamed}[.key] — α-renamed
    serializations, stable across runs, processes and [Bv.reset]
    generations) to verdicts, with SAT models stored in canonical variable
    space.  Because a key determines the component up to an injective
    variable renaming, and bit-blasting is equivariant under such renamings
    (the CNF built for two α-equivalent components is literally identical),
    a store hit translated back through the current query's renaming equals
    what a fresh solve would return — cross-run reuse preserves the
    solver's determinism contract.

    The on-disk format is a {!Binfile} frame: magic string, version,
    payload length, [Marshal] payload, MD5 checksum trailer.  Loading a
    missing, corrupted, truncated or wrong-version file silently yields an
    empty store — a cache may always start cold, never crash the run.  The
    length + checksum trailer means even a single-byte truncation or flip
    is detected, not just bad magic.  Writes are atomic (temp file +
    rename), so concurrent or killed runs cannot tear the file.  All
    operations take an internal mutex: one store may be shared by all
    parallel worker domains of a run.

    A store is attached to a run through [Engine.config.store]; the
    engine only reads and adds.  Its owner opens it ({!load}, or
    {!in_memory} for a store that never touches the disk) and decides
    when to {!save} it. *)

type entry =
  | E_unsat
  | E_sat of int64 array  (** value per canonical variable index *)
  | E_blob of string
      (** opaque client payload under a client-chosen key (namespaced so it
          can never collide with a canonical component key) — used by the
          summary layer to persist serialized function summaries in the
          same framed, fault-tolerant file *)

type t

val load : ?faults:Overify_fault.Fault.t -> dir:string -> unit -> t
(** Open (creating [dir] if needed) and read the store file if present and
    valid; any load failure yields an empty store.  [faults] injects
    write corruption/truncation at [save] time (chaos testing). *)

val in_memory : unit -> t
(** An empty store with no directory: it lives as long as the value,
    and {!save} writes nothing. *)

val with_dir :
  ?faults:Overify_fault.Fault.t -> dir:string -> (t -> 'a) -> 'a
(** [with_dir ~dir f] loads the store in [dir], runs [f] on it and saves
    it.  When [f] raises (a simulated kill, say) nothing is saved. *)

val find : t -> string -> entry option
val add : t -> string -> entry -> unit

val save : t -> unit
(** Atomically write the store back if it gained entries; a no-op for an
    {!in_memory} store.  Write failures are silently ignored (a cache
    must never fail the run). *)

val length : t -> int
val loaded : t -> int
(** Number of entries read from disk at [load] time. *)
