(** Structural validator for the IR; run after every pass in tests.

    Checks: unique blocks/defs, terminator targets, phi placement and
    incoming-label consistency, operand typing; with [~ssa:true], dominance
    of uses by definitions; with [~memform:true], absence of phis. *)

val paranoid : bool ref
(** Paranoid mode: the optimizer pipeline verifies what every pass
    application that changes code produces (with SSA dominance, and phi
    absence after the memory-form passes), and the loop passes check the
    loop lists they keep against a fresh {!Loop.find} after every
    transformation.  Initialized from the [OVERIFY_PARANOID] environment
    variable, which the test profile sets (test/dune). *)

val check :
  ?ssa:bool -> ?memform:bool -> Ir.func -> (unit, string list) result

val check_exn : ?ssa:bool -> ?memform:bool -> Ir.func -> unit
(** Raises [Failure] with the error list and the printed function. *)
