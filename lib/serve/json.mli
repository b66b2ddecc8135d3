(** Minimal JSON for the serve protocol.

    The toolchain *emits* JSON everywhere by hand (fixed key order,
    goldenable); the daemon is the first component that must also *parse*
    it — requests arrive as JSON payloads inside {!Protocol} frames.  This
    is a small recursive-descent parser over the byte string plus the
    matching printer; it round-trips every document the client encoder
    produces (strings are raw bytes, escaped by
    {!Overify_obs.Obs.json_escape} like every other document). *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list  (** key order preserved *)

val parse : string -> (t, string) result
(** Parse one JSON document; trailing non-whitespace is an error.  Error
    messages carry the byte offset. *)

val member_spans : string -> ((string * (int * int)) list, string) result
(** Check one document like {!parse}, without building its values, and
    return each member of its top-level object, in document order, with
    the byte span [(start, stop)] of its value as written; [Ok []] when
    the document is not an object. *)

val to_string : t -> string
(** Print compactly, object keys in list order. *)

val escape : string -> string
(** {!Overify_obs.Obs.json_escape}. *)

(* Accessors ([None] on shape mismatch). *)

val mem : t -> string -> t option
val str : t -> string option
val num : t -> float option
val int_ : t -> int option
val bool_ : t -> bool option
