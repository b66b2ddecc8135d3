(** Deterministic fault injection.

    The chaos analogue of [Pipeline.sabotage]: a parsed schedule decides,
    per injection site, on which visit of that site a fault fires.  Sites
    keep atomic visit counters, so a schedule is a pure function of the
    visit sequence — under the sequential searcher the same program and
    schedule always fault at exactly the same point, which is what lets
    the chaos sweep assert two-run determinism.

    Spec grammar (comma- or semicolon-separated; [--faults] or the
    protocol's [faults] field):

    {v
      timeout@N   the N-th solver query raises Solver.Timeout
      corrupt@N   the N-th Store save flips a payload byte
      partial@N   the N-th Store save truncates the file mid-frame
      alloc@N     the N-th Alloca simulates allocation-budget exhaustion
      crash@N     the N-th executor step raises a contained worker crash
      kill@N      the N-th executor step raises an uncontainable Killed
                  (simulates SIGKILL; used by the kill/resume test)
      stall@N     the N-th solver query blocks until its cancellation
                  token fires (a stuck solver; without a token it raises
                  Solver.Timeout instead of hanging forever) — the
                  injectable wedge the serve watchdog recovers from
      seed:S[:K]  expand to K (default 3) pseudo-random entries drawn
                  from {timeout, alloc, crash} with an LCG seeded by S
    v}

    A site may appear several times ([alloc@2,alloc@5]). *)

type kind =
  | Solver_timeout
  | Store_corrupt
  | Store_partial
  | Alloc_fail
  | Worker_crash
  | Kill
  | Solver_stall

type t

(** Raised by an injected worker crash; the engine contains it per path. *)
exception Crash of string

(** Raised by an injected kill; deliberately NOT contained — it simulates
    the whole process dying (the checkpoint/resume story picks up from
    the last snapshot). *)
exception Killed of string

val kind_name : kind -> string
val all_kinds : kind list

(** Parse a schedule spec; [Error msg] on bad syntax. *)
val parse : string -> (t, string) result

(** The spec string the schedule was parsed from. *)
val spec : t -> string

(** [fire sched kind] ticks the site's visit counter and reports whether
    a fault fires on this visit.  [fire None _] is false and free. *)
val fire : t option -> kind -> bool

(** Faults fired so far, per kind (all kinds, zeros included; stable
    order = [all_kinds]). *)
val injected : t -> (string * int) list

(** Total faults fired so far. *)
val injected_total : t -> int
