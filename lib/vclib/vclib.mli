(** The MiniC standard library, in two variants (paper §3, "library-level
    changes"): an execution-oriented one and a verification-oriented one
    with branch-free predicates and precondition checks. *)

type variant = Exec | Verify

val source : variant -> string
(** MiniC source of the chosen libc variant; concatenate it with the program
    under test before compiling (linking, KLEE-style). *)

val for_cost_model : Overify_opt.Costmodel.t -> string
(** The variant a cost model links ([Verify] iff [verify_libc]). *)

val frontend :
  ?link_libc:bool -> Overify_opt.Costmodel.t -> string -> Overify_ir.Ir.modul
(** [frontend level source] parses [source] together with the libc variant
    [level] links ([link_libc], default true, links it) — the front half
    of the paper's build chain, before {!Overify_opt.Pipeline.optimize}.
    Raises {!Overify_minic.Frontend.Compile_error} on a malformed
    program. *)
