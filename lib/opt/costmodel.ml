(** The cost model is the heart of the paper's thesis: [-OVERIFY] is mostly
    the {e same passes} as [-O3] with {e different costs} — a branch is far
    more expensive for a verifier than for a CPU, code growth is cheap, and
    CPU-specific passes are pointless.  Each optimization level is a value of
    this record. *)

type t = {
  name : string;
  branch_cost : int;
      (** relative cost of a conditional branch; drives if-conversion:
          speculation is profitable while
          [speculated instructions <= branch_cost] *)
  inline_threshold : int;  (** max callee size (instructions) to inline *)
  inline_growth : int;     (** max ×-growth of a function from inlining *)
  unswitch_size_limit : int;  (** max loop size (instructions) to unswitch *)
  unswitch_rounds : int;      (** max unswitch applications per function *)
  unroll_trip_limit : int;    (** max trip count to fully peel *)
  unroll_size_limit : int;    (** max (body size × trips) after peeling *)
  verify_libc : bool;   (** link the verification-friendly libc variant *)
  passes : string list; (** the passes that run; the pipeline orders them *)
}

(** No optimization: what a verifier sees from a debug build. *)
let o0 =
  {
    name = "-O0";
    branch_cost = 0;
    inline_threshold = 0;
    inline_growth = 1;
    unswitch_size_limit = 0;
    unswitch_rounds = 0;
    unroll_trip_limit = 0;
    unroll_size_limit = 0;
    verify_libc = false;
    passes = [];
  }

(* The passes -O2, -O3 and -OVERIFY share, in pipeline order: inlining, the
   memory-form loop transforms, SSA construction and the scalar fixpoint. *)
let common_passes =
  [ "inline"; "unswitch"; "unroll"; "sroa"; "mem2reg"; "constfold"; "gvn";
    "loadelim"; "simplify_cfg"; "jump_threading"; "if_convert"; "licm";
    "loop_delete"; "dce" ]

(** Standard optimization: scalar cleanups and modest inlining, but no
    structural loop transformations — path structure is unchanged (the zero
    unswitch and unroll limits make those two passes no-ops). *)
let o2 =
  {
    o0 with
    name = "-O2";
    branch_cost = 0;
    inline_threshold = 45;
    inline_growth = 4;
    passes = common_passes @ [ "schedule" ];
  }

(** Aggressive execution-oriented optimization: adds loop unswitching, small
    unrolling and CPU-budget if-conversion. *)
let o3 =
  {
    o2 with
    name = "-O3";
    branch_cost = 3;
    inline_threshold = 90;
    inline_growth = 8;
    unswitch_size_limit = 200;
    unswitch_rounds = 2;
    unroll_trip_limit = 8;
    unroll_size_limit = 256;
  }

(** Verification-oriented optimization (the paper's [-OSYMBEX] instance):
    branches are treated as nearly unbounded cost, inlining and unrolling are
    allowed to grow code substantially, CPU-specific passes are disabled, and
    metadata is preserved. *)
let overify =
  {
    name = "-OVERIFY";
    branch_cost = 10_000;
    inline_threshold = 5_000;
    inline_growth = 64;
    unswitch_size_limit = 2_000;
    unswitch_rounds = 8;
    unroll_trip_limit = 300;
    unroll_size_limit = 20_000;
    verify_libc = true;
    passes = common_passes @ [ "annotate" ];
  }

let of_name = function
  | "-O0" | "O0" | "o0" -> Some o0
  | "-O2" | "O2" | "o2" -> Some o2
  | "-O3" | "O3" | "o3" -> Some o3
  | "-OVERIFY" | "-Overify" | "OVERIFY" | "Overify" | "overify"
  | "-OSYMBEX" | "OSYMBEX" | "osymbex" ->
      Some overify
  | _ -> None

let all = [ o0; o2; o3; overify ]
