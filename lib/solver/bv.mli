(** Hash-consed bitvector terms — the symbolic-expression language shared by
    the symbolic executor and the solver (the role STP's expressions play
    for KLEE).  Widths are 1..64 bits; constants are stored normalized
    (zero-extended into the [int64]).  Smart constructors simplify locally
    so the executor's common patterns never reach the SAT solver.  The
    operators are the IR's, and constants fold and terms evaluate with
    [Ir.eval_binop]/[Ir.eval_cmp]: a term means what the interpreter
    computes. *)

type binop = Overify_ir.Ir.binop =
  | Add | Sub | Mul | Sdiv | Udiv | Srem | Urem
  | And | Or | Xor | Shl | Lshr | Ashr

type cmpop = Overify_ir.Ir.cmp =
  | Eq | Ne | Slt | Sle | Sgt | Sge | Ult | Ule | Ugt | Uge

type t = private { id : int; node : node; width : int }

and node =
  | Const of int64
  | Var of int          (** symbolic variable (input byte); id is global *)
  | Bin of binop * t * t
  | Cmp of cmpop * t * t   (** width 1 *)
  | Ite of t * t * t
  | Concat of t * t     (** high bits, low bits *)
  | Extract of int * int * t  (** [hi..lo] inclusive *)

val width : t -> int

val rebuilder : unit -> t -> t
(** Memoizing re-interner for terms that bypassed the hash-cons table —
    i.e. were unmarshaled from a checkpoint.  Rebuilds bottom-up through
    [mk], so the results are ordinary interned terms with live ids;
    sharing within the batch is preserved.  One rebuilder per unmarshaled
    batch. *)

val reset : unit -> unit
(** Drop all hash-consed terms, to bound GC pressure; each engine run calls
    this before spawning workers.  Not safe while another domain builds
    terms.  Ids are never handed out twice: a term that outlives a reset
    stays distinct from every term built after it.

    Term construction itself is thread-safe: the hash-cons table is guarded
    by a lock, so parallel exploration workers may build terms
    concurrently. *)

(** {2 Constructors (simplifying)} *)

val const : int -> int64 -> t

val var : int -> int -> t
(** [var width id]. *)

val tt : t
val ff : t
val bool_ : bool -> t
val is_const : t -> bool
val const_val : t -> int64 option

val binop : binop -> t -> t -> t
(** Folds constants; identity/absorption laws; power-of-two division and
    multiplication become shifts/masks (keeps divider circuits out of the
    CNF). *)

val cmp : cmpop -> t -> t -> t
val not_ : t -> t
val and_ : t -> t -> t
val or_ : t -> t -> t
val ite : t -> t -> t -> t
val extract : hi:int -> lo:int -> t -> t
val concat : t -> t -> t
(** [concat hi lo]. *)

val zext : int -> t -> t
val sext : int -> t -> t
val trunc : int -> t -> t

(** {2 Evaluation and queries} *)

val eval : (int -> int64) -> t -> int64
(** Evaluate under a variable assignment (memoized over the DAG); division
    by zero yields 0, matching the blasted circuit. *)

val vars : t -> (int, int) Hashtbl.t
(** Variables occurring in a term: id -> width. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
