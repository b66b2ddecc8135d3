(** Pass pipelines implementing [-O0], [-O2], [-O3] and [-OVERIFY].

    Phase structure (see DESIGN.md §5):
    1. memory form: inlining, loop unswitching, loop peeling — structural
       transforms where block cloning is trivially sound;
    2. [mem2reg] builds SSA;
    3. scalar fixpoint: folding, GVN, CFG simplification, jump threading,
       if-conversion, DCE;
    4. CPU-oriented scheduling ([-O2]/[-O3]) or annotations ([-OVERIFY]).

    A level's [passes] list decides which of these run: a pass not named
    there is skipped, whatever its phase, and the order is fixed here.

    The pipeline is organized as a stream of {e pass applications}: every
    time a pass changes a function (or, for [inline], the module), an
    observer can receive the module just before and just after that one
    application.  The translation-validation subsystem ([lib/tv]) consumes
    this stream to prove each application sound — the chain of observed
    (before, after) pairs composes to the whole compilation, so the first
    failing pair names the offending pass. *)

module Ir = Overify_ir.Ir
module Verify = Overify_ir.Verify
module Obs = Overify_obs.Obs

type result = {
  modul : Ir.modul;
  stats : Stats.t;
}

type observer =
  pass:string -> fn:string -> before:Ir.modul -> after:Ir.modul -> unit

(** Test-only fault injection: [Some (pass, corrupt)] applies [corrupt] to
    the result of every application of [pass].  Used to check that
    translation validation detects a miscompilation and that pass bisection
    names exactly the corrupted pass.  Never set outside tests. *)
let sabotage : (string * (Ir.func -> Ir.func)) option ref = ref None

(* passes that run before [mem2reg], on IR that must not contain phis *)
let memform_passes = [ "runtime_checks"; "inline"; "unswitch"; "unroll"; "sroa" ]

(* In paranoid mode ([Verify.paranoid], from the [OVERIFY_PARANOID]
   environment variable, which the test profile sets in test/dune; test_opt
   asserts it is on, so silently losing it from [dune runtest] fails the
   suite), every pass application that changes code is followed by an IR
   verification of what it produced: structure, typing and SSA dominance
   always, plus the absence of phis after the memory-form passes; after
   [inline] every function of the module is checked. *)
let check_fn what fn =
  if !Verify.paranoid then
    match
      Verify.check ~ssa:true ~memform:(List.mem what memform_passes) fn
    with
    | Ok () -> ()
    | Error errs ->
        failwith
          (Printf.sprintf "pipeline: IR broken after %s in %s:\n%s\n%s" what
             fn.Ir.fname
             (String.concat "\n" errs)
             (Overify_ir.Printer.func_to_string fn))

(** Everything one compilation threads through the pass applications.  [cur]
    tracks the whole module between applications, but only when an observer
    is attached — the plain compile path pays nothing for the stream. *)
type ctx = {
  cm : Costmodel.t;
  stats : Stats.t;
  observe : observer option;
  prof : Obs.Pass.t option;
      (** per-application wall time + code-size delta collector *)
  mutable cur : Ir.modul;
}

let emit ctx ~pass ~fn ~before ~after =
  match ctx.observe with
  | Some f -> f ~pass ~fn ~before ~after
  | None -> ()

(** Hand one pass application (time + size delta) to [Obs.Pass], which
    feeds the profile collector and, when tracing, the trace sink. *)
let profile_app ctx ~pass ~fn ~t0 ~size_before ~size_after ~changed =
  Obs.Pass.record ?into:ctx.prof ~ts:t0
    {
      Obs.Pass.pa_pass = pass;
      pa_fn = fn;
      pa_time = Unix.gettimeofday () -. t0;
      pa_size_before = size_before;
      pa_size_after = size_after;
      pa_changed = changed;
    }

(** Is any per-application bookkeeping (profile, trace) on? *)
let timing_on ctx = ctx.prof <> None || Obs.Trace.enabled ()

(** Does the level run the pass named [what]? *)
let runs ctx what = List.mem what ctx.cm.Costmodel.passes

(** Apply one function pass if the level runs it, feeding the observer on
    change. *)
let apply_fn ctx what (f : Ir.func -> Ir.func * bool) (fn : Ir.func) :
    Ir.func * bool =
  if not (runs ctx what) then (fn, false)
  else begin
    let timing = timing_on ctx in
    let t0 = if timing then Unix.gettimeofday () else 0.0 in
    let (fn', changed) = f fn in
    let (fn', changed) =
      match !sabotage with
      | Some (p, corrupt) when p = what ->
          let fn'' = corrupt fn' in
          (fn'', changed || fn'' <> fn')
      | _ -> (fn', changed)
    in
    if timing then
      profile_app ctx ~pass:what ~fn:fn.Ir.fname ~t0
        ~size_before:(Ir.func_size fn) ~size_after:(Ir.func_size fn') ~changed;
    if changed then begin
      check_fn what fn';
      if ctx.observe <> None then begin
        let before = ctx.cur in
        ctx.cur <- Ir.update_func ctx.cur fn';
        emit ctx ~pass:what ~fn:fn.Ir.fname ~before ~after:ctx.cur
      end
    end;
    (fn', changed)
  end

(** The scalar-optimization fixpoint on one SSA function. *)
let scalar_fixpoint ctx (fn : Ir.func) : Ir.func =
  let cm = ctx.cm and stats = ctx.stats in
  let rec go fn round =
    if round = 0 then fn
    else begin
      let (fn, c1) = apply_fn ctx "constfold" (Constfold.run stats) fn in
      let (fn, c2) = apply_fn ctx "gvn" Gvn.run fn in
      let (fn, c2b) = apply_fn ctx "loadelim" Loadelim.run fn in
      let c2 = c2 || c2b in
      let (fn, c3) = apply_fn ctx "simplify_cfg" Simplify_cfg.run fn in
      let (fn, c4) =
        apply_fn ctx "jump_threading" (Jump_threading.run stats) fn
      in
      let (fn, c5) = apply_fn ctx "if_convert" (If_convert.run cm stats) fn in
      let (fn, c6) = apply_fn ctx "licm" (Licm.run stats) fn in
      let (fn, c6b) = apply_fn ctx "loop_delete" (Loop_delete.run stats) fn in
      let c6 = c6 || c6b in
      let (fn, c7) = apply_fn ctx "dce" Dce.run fn in
      if c1 || c2 || c3 || c4 || c5 || c6 || c7 then go fn (round - 1) else fn
    end
  in
  go fn 6

let optimize_function ctx (fn : Ir.func) : Ir.func =
  let cm = ctx.cm and stats = ctx.stats in
  (* memory-form loop transforms *)
  let (fn, _) = apply_fn ctx "unswitch" (Loop_unswitch.run cm stats) fn in
  let (fn, _) = apply_fn ctx "unroll" (Loop_unroll.run cm stats) fn in
  (* SSA construction and scalar work *)
  let (fn, _) = apply_fn ctx "sroa" (Sroa.run stats) fn in
  let (fn, _) = apply_fn ctx "mem2reg" (Mem2reg.run stats) fn in
  let fn = scalar_fixpoint ctx fn in
  (* finishing passes *)
  let (fn, _) = apply_fn ctx "schedule" Schedule.run fn in
  fst (apply_fn ctx "annotate" (Annotate.run cm stats) fn)

(** Compile a memory-form module at the given optimization level.  With
    [observe], every pass application that changes code is reported as a
    (before, after) module pair, in application order. *)
let optimize ?observe ?prof (cm : Costmodel.t) (m : Ir.modul) : result =
  let stats = Stats.create () in
  let ctx = { cm; stats; observe; prof; cur = m } in
  let m =
    {
      m with
      Ir.funcs =
        List.map
          (fun f -> fst (apply_fn ctx "runtime_checks" (Runtime_checks.run stats) f))
          m.Ir.funcs;
    }
  in
  let m =
    if runs ctx "inline" then begin
      let before = ctx.cur in
      let timing = timing_on ctx in
      let t0 = if timing then Unix.gettimeofday () else 0.0 in
      let m' = Inline.run cm stats m in
      if timing then begin
        let modul_size mm =
          List.fold_left (fun acc f -> acc + Ir.func_size f) 0 mm.Ir.funcs
        in
        profile_app ctx ~pass:"inline" ~fn:"*" ~t0
          ~size_before:(modul_size m) ~size_after:(modul_size m')
          ~changed:(m' <> m)
      end;
      List.iter (check_fn "inline") m'.Ir.funcs;
      if ctx.observe <> None && m' <> m then begin
        ctx.cur <- m';
        emit ctx ~pass:"inline" ~fn:"*" ~before ~after:m'
      end;
      m'
    end
    else m
  in
  let m = { m with Ir.funcs = List.map (optimize_function ctx) m.Ir.funcs } in
  { modul = m; stats }
