(** Symbolic byte-granular memory with copy-on-write objects.

    A cell is an 8-bit {!Sval}: a concrete byte, or a term once a symbolic
    value is stored there.  Reads and writes at concrete offsets touch the
    exact cells, and an access whose bytes are all concrete builds no
    term; symbolic offsets build ITE chains over every in-bounds position
    (KLEE's array selects, materialized eagerly).  States share objects
    structurally; every write replaces the object's cell array. *)

module Bv = Overify_solver.Bv

type obj = {
  size : int;
  cells : Sval.t array;  (** one 8-bit [Con] or [Sym] per byte *)
  writable : bool;
  live : bool;
}

type t

type access_error =
  | Out_of_bounds of { size : int; offset : string; width : int }
  | Dead_object
  | Read_only
  | Too_wide_ite  (** symbolic offset over an object above the ITE cap *)

val empty : t
val alloc : ?writable:bool -> t -> size:int -> t * int
val alloc_bytes : ?writable:bool -> t -> string -> size:int -> t * int
val alloc_symbolic : t -> vars:int array -> t * int
val find : t -> int -> obj option
val kill : t -> int -> t
(** Mark an object dead (scope exit); later access reports [Dead_object]. *)

val read : t -> Sval.t -> width:int -> (Sval.t, access_error) result
(** Little-endian assembly of [width] bytes at a pointer ([Ptr] or
    [Sym_ptr]): a [Con] of [8 * width] bits when every byte read is
    concrete.  For a symbolic offset the caller must already have
    constrained it in bounds. *)

val write :
  t -> Sval.t -> width:int -> v:Sval.t -> (t, access_error) result
(** Store integer [v] of at most [8 * width] bits, zero-extended, as
    [width] little-endian bytes at a pointer. *)

val string_of_error : access_error -> string

val map_terms : (Bv.t -> Bv.t) -> t -> t
(** Rewrite every symbolic cell's term (checkpoint restore re-interns
    unmarshaled terms into the live hash-cons table). *)
