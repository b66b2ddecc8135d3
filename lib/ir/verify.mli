(** Structural validator for the IR; run after every pass in tests.

    Checks: unique blocks/defs, terminator targets, phi placement and
    incoming-label consistency, operand typing; with [~ssa:true], dominance
    of uses by definitions; with [~memform:true], absence of phis. *)

val check :
  ?ssa:bool -> ?memform:bool -> Ir.func -> (unit, string list) result

val check_exn : ?ssa:bool -> ?memform:bool -> Ir.func -> unit
(** Raises [Failure] with the error list and the printed function. *)
