(** The cost model is the heart of the paper's thesis: [-OVERIFY] is mostly
    the {e same passes} as [-O3] with {e different costs}.  Each optimization
    level is a value of {!t}: the passes it runs, what it charges them, and
    which libc it links.  The pipeline consults only this record. *)

type t = {
  name : string;
  branch_cost : int;
      (** relative cost of a conditional branch; drives if-conversion:
          speculation is profitable while the speculated instruction count
          stays below this *)
  inline_threshold : int;  (** max callee size (instructions) to inline *)
  inline_growth : int;     (** max ×-growth of a function from inlining *)
  unswitch_size_limit : int;  (** max loop size (instructions) to unswitch *)
  unswitch_rounds : int;      (** max unswitch applications per function *)
  unroll_trip_limit : int;    (** max trip count to fully peel *)
  unroll_size_limit : int;    (** max (body size × trips) after peeling *)
  verify_libc : bool;      (** link the verification-friendly libc variant *)
  passes : string list;
      (** the passes that run, by name; the pipeline fixes their order.  A
          pass not named here never runs, so ablation removes names and a
          debug build adds ["runtime_checks"]. *)
}

val o0 : t
(** No optimization: what a verifier sees from a debug build. *)

val o2 : t
(** Standard optimization: scalar cleanups and modest inlining, but no
    structural loop transformations — path structure is unchanged. *)

val o3 : t
(** Aggressive execution-oriented optimization: adds loop unswitching, small
    unrolling and CPU-budget if-conversion. *)

val overify : t
(** Verification-oriented optimization (the paper's [-OSYMBEX] instance). *)

val of_name : string -> t option
(** Parse "-O0" / "O3" / "-OVERIFY" / "osymbex" etc. *)

val all : t list
(** The four levels, in increasing optimization order. *)
