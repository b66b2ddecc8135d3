(** Pass pipelines implementing [-O0], [-O2], [-O3] and [-OVERIFY].

    Phase structure: structural transforms on memory form (inlining,
    unswitching, peeling) where block cloning is trivially sound, then
    [mem2reg], then the scalar fixpoint on SSA, then CPU-oriented or
    verification-oriented finishing passes.  A pass runs only when its name
    is in the level's [Costmodel.passes]. *)

type result = {
  modul : Overify_ir.Ir.modul;
  stats : Stats.t;         (** transformation counters (Table 3) *)
}

type observer =
  pass:string ->
  fn:string ->
  before:Overify_ir.Ir.modul ->
  after:Overify_ir.Ir.modul ->
  unit
(** Called once per pass application that changed code, with the whole
    module just before and just after that one application.  [fn] is the
    function the pass ran on, or ["*"] for module-level passes (inlining).
    Applications are reported in order, so consecutive [after]/[before]
    modules coincide and the chain composes to the whole compilation. *)

val sabotage : (string * (Overify_ir.Ir.func -> Overify_ir.Ir.func)) option ref
(** Test-only fault injection: [Some (pass, corrupt)] corrupts the output
    of every application of [pass].  Used to prove that translation
    validation catches miscompilations.  Never set outside tests. *)

val optimize :
  ?observe:observer ->
  ?prof:Overify_obs.Obs.Pass.t ->
  Costmodel.t ->
  Overify_ir.Ir.modul ->
  result
(** Compile a memory-form module at the given optimization level.
    [observe] taps the stream of pass applications; [prof] collects per-
    application wall time and code-size delta (every attempted application,
    changed or not), and while the trace sink collects each application is
    also an [opt] trace event (both through [Obs.Pass.record]).  Without
    [observe], [prof] or tracing the compilation path is unchanged — no
    clock reads, no recording. *)
