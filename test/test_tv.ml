(** Translation-validation tests: hand-written equivalent pairs prove, a
    deliberately miscompiled pair yields a counterexample with a concrete
    witness, pre-version traps are excused, budget exhaustion falls back to
    differential interpretation with an explicit reason, and the pass
    bisector names an injected bad pass exactly. *)

module Ir = Overify_ir.Ir
module Frontend = Overify_minic.Frontend
module Costmodel = Overify_opt.Costmodel
module Pipeline = Overify_opt.Pipeline
module Tv = Overify_tv.Tv
module Product = Overify_tv.Product
module Engine = Overify_symex.Engine
module Cancel = Overify_fault.Cancel
module Obs = Overify_obs.Obs

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int
let string = Alcotest.string

(** Compile one source at a level with no libc: small, self-contained
    modules whose only function is [main]. *)
let compile ?(level = Costmodel.o0) src =
  (Pipeline.optimize level (Frontend.compile_source src)).Pipeline.modul

(** A small budget keeps each check well under a second. *)
let config =
  {
    Tv.default_config with
    Engine.input_size = 2;
    max_paths = 200;
    max_insts = 500_000;
    timeout = 2.0;
  }

let verdict_of pre post = (Tv.check_modules ~config pre post).Tv.verdict

let is_proved = function Tv.Proved _ -> true | _ -> false

(* ------------- equivalent pairs prove ------------- *)

let test_proved_identical_syntactic () =
  let m = compile "int main(void) { return __input(0); }" in
  match verdict_of m m with
  | Tv.Proved Tv.Syntactic -> ()
  | v -> Alcotest.failf "expected syntactic proof, got %s" (Tv.string_of_verdict v)

let test_proved_strength_reduction () =
  (* x + x vs 2 * x : different IR, same function *)
  let pre =
    compile "int main(void) { int x = __input(0); __output(x); return x + x; }"
  in
  let post =
    compile "int main(void) { int x = __input(0); __output(x); return 2 * x; }"
  in
  match verdict_of pre post with
  | Tv.Proved Tv.Exhaustive -> ()
  | v -> Alcotest.failf "expected exhaustive proof, got %s" (Tv.string_of_verdict v)

let test_proved_real_pipeline () =
  (* -O3 output of a real program against its -O0 version *)
  let src =
    {|
int main(void) {
  int i = 0;
  int n = __input(0) & 7;
  int s = 0;
  while (i < n) { s = s + i * i; i = i + 1; }
  __output(s);
  return s & 127;
}
|}
  in
  let pre = compile ~level:Costmodel.o0 src in
  let post = compile ~level:Costmodel.o3 src in
  let o = Tv.check_modules ~config pre post in
  check bool
    ("whole -O3 compilation proves: " ^ Tv.string_of_verdict o.Tv.verdict)
    true (is_proved o.Tv.verdict)

(* ------------- miscompilations are caught ------------- *)

let test_catches_dropped_output () =
  (* a "pass" that drops a store to the output stream *)
  let pre =
    compile "int main(void) { int x = __input(0); __output(x); return x; }"
  in
  let post = compile "int main(void) { int x = __input(0); return x; }" in
  match verdict_of pre post with
  | Tv.Counterexample w ->
      check string "detail" "output trace differs" w.Tv.detail
  | v -> Alcotest.failf "expected counterexample, got %s" (Tv.string_of_verdict v)

let test_catches_wrong_constant () =
  let pre = compile "int main(void) { return __input(0) + 1; }" in
  let post = compile "int main(void) { return __input(0) + 2; }" in
  match verdict_of pre post with
  | Tv.Counterexample w ->
      (* the witness replays through the interpreter with both behaviors *)
      check bool "exit codes differ" true
        (w.Tv.pre_behavior.Tv.exit_code <> w.Tv.post_behavior.Tv.exit_code)
  | v -> Alcotest.failf "expected counterexample, got %s" (Tv.string_of_verdict v)

let test_catches_introduced_trap () =
  (* post drops the guard, introducing a division by zero *)
  let pre =
    compile
      "int main(void) { int x = __input(0); if (x) return 10 / x; return 0; }"
  in
  let post = compile "int main(void) { int x = __input(0); return 10 / x; }" in
  match verdict_of pre post with
  | Tv.Counterexample w ->
      check bool
        ("detail names the introduced trap: " ^ w.Tv.detail)
        true
        (String.length w.Tv.detail >= 15
        && String.sub w.Tv.detail 0 15 = "introduced trap")
  | v -> Alcotest.failf "expected counterexample, got %s" (Tv.string_of_verdict v)

(* ------------- asymmetric refinement: pre-traps are excused ------------- *)

let test_excused_pre_trap () =
  (* both versions divide by a possibly-zero input: paths where the pre
     version traps end before the post version runs, so the pair still
     proves — with the excused paths counted *)
  let pre = compile "int main(void) { return 10 / __input(0); }" in
  let post = compile "int main(void) { int y = 0; return 10 / __input(0) + y; }" in
  let o = Tv.check_modules ~config pre post in
  check bool
    ("proves despite pre-trap: " ^ Tv.string_of_verdict o.Tv.verdict)
    true (is_proved o.Tv.verdict);
  check bool "excused pre-traps counted" true (o.Tv.excused_pre_traps > 0)

(* ------------- budget exhaustion ------------- *)

let test_inconclusive_budget_exhausted () =
  let src_pre =
    "int main(void) { int i = 0; int s = 0; while (i < 5000) { s = s + i; i \
     = i + 1; } return s & 127; }"
  in
  let src_post =
    "int main(void) { int i = 0; int s = 0; while (i < 5000) { s = i + s; i \
     = i + 1; } return s & 127; }"
  in
  let pre = compile src_pre in
  let post = compile src_post in
  let tiny = { config with Engine.max_insts = 2_000; timeout = 1.0 } in
  let o = Tv.check_modules ~config:tiny pre post in
  match o.Tv.verdict with
  | Tv.Inconclusive reason ->
      let has_needle hay needle =
        let nh = String.length hay and nn = String.length needle in
        let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
        go 0
      in
      check bool
        ("reason says the budget ran out: " ^ reason)
        true
        (has_needle reason "budget exhausted");
      check bool "differential fallback ran" true (o.Tv.fallback_runs > 0)
  | v -> Alcotest.failf "expected inconclusive, got %s" (Tv.string_of_verdict v)

(* ------------- pass bisection on an injected miscompilation ------------- *)

(** Flip the first integer [Add] into a [Sub] — a classic silent
    miscompilation that still passes the IR verifier. *)
let flip_first_add (fn : Ir.func) : Ir.func =
  let flipped = ref false in
  let blocks =
    List.map
      (fun (b : Ir.block) ->
        {
          b with
          Ir.insts =
            List.map
              (fun i ->
                match i with
                | Ir.Bin (d, Ir.Add, ty, a, v) when not !flipped ->
                    flipped := true;
                    Ir.Bin (d, Ir.Sub, ty, a, v)
                | i -> i)
              b.Ir.insts;
        })
      fn.Ir.blocks
  in
  { fn with Ir.blocks }

let test_bisector_names_sabotaged_pass () =
  let src = "int main(void) { int x = __input(0); return x + 3; }" in
  let m0 = Frontend.compile_source src in
  Fun.protect
    ~finally:(fun () -> Pipeline.sabotage := None)
    (fun () ->
      Pipeline.sabotage := Some ("constfold", flip_first_add);
      let (_, report) = Tv.validate ~config Costmodel.o2 m0 in
      match Tv.first_offender report with
      | Some o -> check string "bisector blames the corrupted pass" "constfold" o.Tv.pass
      | None ->
          Alcotest.failf "injected miscompilation not detected; report: %s"
            (Tv.report_to_json report));
  (* and without sabotage the same compilation proves end to end *)
  let (_, clean) = Tv.validate ~config Costmodel.o2 m0 in
  check int "clean compilation has no counterexamples" 0
    (List.length (Tv.counterexamples clean))

(* ------------- validated compilation of a corpus slice ------------- *)

let test_corpus_slice_all_levels () =
  let program =
    match Overify_corpus.Programs.find "echo" with
    | Some p -> p
    | None -> Alcotest.fail "corpus program echo missing"
  in
  List.iter
    (fun (cm : Costmodel.t) ->
      let m0 =
        Frontend.compile_sources
          [ Overify_vclib.Vclib.for_cost_model cm;
            program.Overify_corpus.Programs.source ]
      in
      let (_, report) = Tv.validate ~config cm m0 in
      check int
        (Printf.sprintf "echo @ %s: no counterexamples" cm.Costmodel.name)
        0
        (List.length (Tv.counterexamples report));
      (* any inconclusive verdict must carry its budget-exhausted reason *)
      List.iter
        (fun (r : Tv.record) ->
          match r.Tv.outcome.Tv.verdict with
          | Tv.Inconclusive reason ->
              check bool "inconclusive has a reason" true (String.length reason > 0)
          | _ -> ())
        report.Tv.records)
    Costmodel.all

let test_report_json_shape () =
  let m0 =
    Frontend.compile_source
      "int main(void) { int x = __input(0); int y = x * 3; return y; }"
  in
  let (_, report) = Tv.validate ~config Costmodel.o2 m0 in
  check bool "at least one pass application recorded" true
    (report.Tv.records <> []);
  let json = Tv.report_to_json report in
  let has_needle hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun k -> check bool ("json has key " ^ k) true (has_needle json k))
    [ {|"level"|}; {|"records"|}; {|"per_pass"|}; {|"verdict"|}; {|"queries"|} ]

(* The obligations of one validation share solver answers: components an
   earlier obligation solved come back from the in-memory store the
   validation attaches, and every verdict is the one a validation that
   never reads the store (reuse off) gives. *)
let test_validation_shares_answers () =
  let program =
    match Overify_corpus.Programs.find "wc" with
    | Some p -> p
    | None -> Alcotest.fail "corpus program wc missing"
  in
  let m0 =
    Overify_vclib.Vclib.frontend Costmodel.overify
      program.Overify_corpus.Programs.source
  in
  let validate cache =
    snd
      (Tv.validate
         ~config:{ config with Engine.solver_cache = Some cache }
         Costmodel.overify m0)
  in
  let verdicts (report : Tv.report) =
    List.map
      (fun (r : Tv.record) ->
        Printf.sprintf "%s(%s): %s" r.Tv.pass r.Tv.fn
          (Tv.string_of_verdict r.Tv.outcome.Tv.verdict))
      report.Tv.records
  in
  let shared = validate true in
  let hits =
    List.fold_left
      (fun acc (r : Tv.record) ->
        match r.Tv.outcome.Tv.run with
        | Some run -> acc + run.Engine.hits_store
        | None -> acc)
      0 shared.Tv.records
  in
  check bool "later obligations answered from the store" true (hits > 0);
  check (Alcotest.list string) "the verdicts of a validation with reuse off"
    (verdicts (validate false)) (verdicts shared)

(* ------------- cancellation and obligation spans ------------- *)

(** The flight-ring records on [trace]. *)
let records_on trace =
  List.filter
    (fun (r : Obs.Flight.record) -> r.Obs.Flight.fr_trace = trace)
    (Obs.Flight.records ())

let test_cancelled_before_any_obligation () =
  let m0 =
    Frontend.compile_source
      "int main(void) { int x = __input(0); int y = x * 3; return y; }"
  in
  let validate ~cancel root =
    Tv.validate
      ~config:{ config with Engine.cancel = Some cancel; span = Some root }
      Costmodel.o2 m0
  in
  (* a live token: every obligation leaves a tv: span, and the product's
     engine runs nest under them *)
  let live = Obs.Span.start "test.tv" in
  let (_, report) = validate ~cancel:(Cancel.create ()) live in
  let recs = records_on live.Obs.Span.sp_trace in
  let tv_ids =
    List.filter_map
      (fun (r : Obs.Flight.record) ->
        if String.starts_with ~prefix:"tv:" r.Obs.Flight.fr_label then
          Some r.Obs.Flight.fr_id
        else None)
      recs
  in
  check int "one tv: span per obligation"
    (List.length report.Tv.records) (List.length tv_ids);
  let runs =
    List.filter
      (fun (r : Obs.Flight.record) -> r.Obs.Flight.fr_label = "engine.run")
      recs
  in
  check bool "some obligation ran the engine" true (runs <> []);
  check bool "every engine.run nests under a tv: span" true
    (List.for_all
       (fun (r : Obs.Flight.record) -> List.mem r.Obs.Flight.fr_parent tv_ids)
       runs);
  (* a token whose deadline has passed: no obligation is checked *)
  let cut = Obs.Span.start "test.tv" in
  let past = Cancel.create ~deadline:(Unix.gettimeofday () -. 1.0) () in
  match validate ~cancel:past cut with
  | _ -> Alcotest.fail "a past-deadline validation returned a report"
  | exception Cancel.Cancelled reason ->
      check string "cancellation reason" "deadline exceeded" reason;
      check int "nothing ran on the cancelled validation's trace" 0
        (List.length (records_on cut.Obs.Span.sp_trace))

let () =
  Alcotest.run "tv"
    [
      ( "proves",
        [
          Alcotest.test_case "identical modules (syntactic)" `Quick
            test_proved_identical_syntactic;
          Alcotest.test_case "strength reduction" `Quick
            test_proved_strength_reduction;
          Alcotest.test_case "whole -O3 pipeline" `Quick test_proved_real_pipeline;
        ] );
      ( "refutes",
        [
          Alcotest.test_case "dropped output" `Quick test_catches_dropped_output;
          Alcotest.test_case "wrong constant" `Quick test_catches_wrong_constant;
          Alcotest.test_case "introduced trap" `Quick test_catches_introduced_trap;
        ] );
      ( "trust-story",
        [
          Alcotest.test_case "pre-traps excused" `Quick test_excused_pre_trap;
          Alcotest.test_case "budget exhaustion is explicit" `Quick
            test_inconclusive_budget_exhausted;
        ] );
      ( "bisection",
        [
          Alcotest.test_case "sabotaged pass is named" `Quick
            test_bisector_names_sabotaged_pass;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "corpus slice, all levels" `Slow
            test_corpus_slice_all_levels;
          Alcotest.test_case "json report shape" `Quick test_report_json_shape;
          Alcotest.test_case "one validation shares its solver answers" `Quick
            test_validation_shares_answers;
        ] );
      ( "cancellation",
        [
          Alcotest.test_case "past deadline raises before any obligation"
            `Quick test_cancelled_before_any_obligation;
        ] );
    ]
