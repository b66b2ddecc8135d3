(** Harness tests: the experiment plumbing and, crucially, the paper-shape
    assertions — the qualitative results the reproduction must deliver
    (path-count ordering, the verification/execution trade-off, Table 3's
    monotonicity). *)

module H = Overify_harness
module Costmodel = Overify_opt.Costmodel
module Engine = Overify_symex.Engine
module Stats = Overify_opt.Stats

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

(* ------------- experiment plumbing ------------- *)

let test_compile_produces_sizes () =
  let p = Option.get (Overify_corpus.Programs.find "wc") in
  let c0 = H.Experiment.compile Costmodel.o0 p in
  let cv = H.Experiment.compile Costmodel.overify p in
  check bool "sizes positive" true
    (c0.H.Experiment.size > 0 && cv.H.Experiment.size > 0);
  check bool "compile time measured" true (c0.H.Experiment.t_compile >= 0.0)

let test_measure_cycles_deterministic () =
  let p = Option.get (Overify_corpus.Programs.find "sum") in
  let c = H.Experiment.compile Costmodel.o3 p in
  let a = H.Experiment.measure_cycles ~runs:3 ~size:10 c in
  let b = H.Experiment.measure_cycles ~runs:3 ~size:10 c in
  check (Alcotest.float 0.001) "deterministic" a b

(* ------------- Table 1 shape ------------- *)

let test_table1_shape () =
  let rows =
    match H.Table1.rows ~input_size:3 ~timeout:60.0 () with
    | Ok rs -> rs
    | Error msg -> Alcotest.fail ("table 1 rows unavailable: " ^ msg)
  in
  check int "four rows" 4 (List.length rows);
  let by name =
    List.find (fun (r : H.Table1.row) -> r.H.Table1.level = name) rows
  in
  let o0 = by "-O0" and o2 = by "-O2" and o3 = by "-O3"
  and ov = by "-OVERIFY" in
  List.iter
    (fun (r : H.Table1.row) ->
      check bool (r.H.Table1.level ^ " completes") true r.H.Table1.complete)
    rows;
  (* the paper's headline orderings *)
  check bool "paths: O0 = O2" true (o0.H.Table1.paths = o2.H.Table1.paths);
  check bool "paths: O2 > O3" true (o2.H.Table1.paths > o3.H.Table1.paths);
  check bool "paths: O3 > OVERIFY" true (o3.H.Table1.paths > ov.H.Table1.paths);
  check bool "paths: OVERIFY linear (= n+2 at most)" true
    (ov.H.Table1.paths <= 3 + 2);
  check bool "instructions: O0 > OVERIFY x10" true
    (o0.H.Table1.instructions > 10 * ov.H.Table1.instructions);
  (* the execution-side trade-off: -OVERIFY code is slower on the CPU *)
  check bool "t_run: OVERIFY slower than O3" true
    (ov.H.Table1.run_cycles > o3.H.Table1.run_cycles);
  check bool "t_run: O3 faster than O0" true
    (o3.H.Table1.run_cycles < o0.H.Table1.run_cycles)

(* ------------- Table 3 shape ------------- *)

let test_table3_monotone () =
  let t_o3 = H.Table3.totals Costmodel.o3 in
  let t_ov = H.Table3.totals Costmodel.overify in
  let t_o0 = H.Table3.totals Costmodel.o0 in
  check int "O0 does nothing (inlined)" 0 t_o0.Stats.functions_inlined;
  check int "O0 does nothing (unswitched)" 0 t_o0.Stats.loops_unswitched;
  check bool "OVERIFY inlines more than O3" true
    (t_ov.Stats.functions_inlined > t_o3.Stats.functions_inlined);
  check bool "OVERIFY unswitches at least as much" true
    (t_ov.Stats.loops_unswitched >= t_o3.Stats.loops_unswitched);
  check bool "OVERIFY unrolls more" true
    (t_ov.Stats.loops_unrolled > t_o3.Stats.loops_unrolled);
  check bool "OVERIFY converts more branches" true
    (t_ov.Stats.branches_converted > t_o3.Stats.branches_converted);
  check bool "annotations only at OVERIFY" true
    (t_ov.Stats.annotations_added > 0 && t_o3.Stats.annotations_added = 0)

(* ------------- Figure 4 machinery ------------- *)

let test_figure4_summary_math () =
  let mk name o0 o3 ov complete_ov =
    {
      H.Figure4.pname = name;
      o0 = { H.Figure4.total_s = o0; complete = true; paths = 1; bugs = [] };
      o3 = { H.Figure4.total_s = o3; complete = o3 < 900.; paths = 1; bugs = [] };
      overify =
        { H.Figure4.total_s = ov; complete = complete_ov; paths = 1; bugs = [] };
    }
  in
  let entries =
    [ mk "a" 10.0 4.0 1.0 true;    (* OVERIFY 4x faster than O3 *)
      mk "b" 8.0 2.0 2.0 true;     (* tie *)
      mk "c" 10.0 999.0 1.0 true ] (* O3 times out, OVERIFY rescues *)
  in
  let s = H.Figure4.summarize entries in
  check int "one rescued" 1 s.H.Figure4.rescued_from_o3;
  check int "one o3 timeout" 1 s.H.Figure4.timeouts_o3;
  (* the rescued program's timed-out baseline counts as a lower bound *)
  check bool "max speedup is 999x (lower bound from the timeout)" true
    (abs_float (s.H.Figure4.max_speedup_vs_o3 -. 999.0) < 1e-6);
  check bool "no bug mismatches" true (s.H.Figure4.bug_mismatches = [])

let test_figure4_bug_consistency_detection () =
  let cell bugs =
    { H.Figure4.total_s = 1.0; complete = true; paths = 1; bugs }
  in
  let entries =
    [
      {
        H.Figure4.pname = "p";
        o0 = cell [ ("division by zero", "main") ];
        o3 = cell [];
        overify = cell [];  (* missing the bug! *)
      };
    ]
  in
  let s = H.Figure4.summarize entries in
  check int "mismatch detected" 1 (List.length s.H.Figure4.bug_mismatches)

(* a tiny real figure-4 sweep over two programs *)
let test_figure4_small_run () =
  List.iter
    (fun name ->
      let p = Option.get (Overify_corpus.Programs.find name) in
      let m = H.Figure4.measure_one ~input_size:2 ~timeout:10.0 Costmodel.overify p in
      check bool (name ^ " completes at OVERIFY") true m.H.Figure4.complete)
    [ "tr"; "cut" ]

(* ------------- Table 2 machinery ------------- *)

let test_table2_sign () =
  check Alcotest.string "faster" "+" (H.Table2.sign 2.0);
  check Alcotest.string "slower" "-" (H.Table2.sign 0.5);
  check Alcotest.string "neutral" "0" (H.Table2.sign 1.01)

let test_table2_if_convert_ablation () =
  (* disabling if-conversion must hurt verification of wc *)
  let r =
    H.Table2.ablate ~input_size:3 ~timeout:30.0
      ~name:"if-conversion" ~base:Costmodel.overify
      ~disabled:[ "if_convert" ] ()
  in
  check bool "verification suffers without if-conversion" true
    (r.H.Table2.verify_factor > 1.5);
  check bool "more paths without" true
    (r.H.Table2.paths_without > r.H.Table2.paths_with)

let test_table2_deterministic () =
  (* the verification column counts instructions, so a row reads the same
     on every run; scheduling only reorders them, so it changes nothing *)
  let row () =
    H.Table2.ablate ~input_size:2 ~name:"scheduling" ~base:Costmodel.o3
      ~disabled:[ "schedule" ] ()
  in
  let a = row () and b = row () in
  check (Alcotest.float 0.0) "same verify factor" a.H.Table2.verify_factor
    b.H.Table2.verify_factor;
  check Alcotest.string "scheduling is neutral" "0" (H.Table2.verify_sign a)

(* ------------- report formatting ------------- *)

let test_report_fmt_int () =
  check Alcotest.string "thousands" "1,234,567" (H.Report.fmt_int 1234567);
  check Alcotest.string "small" "42" (H.Report.fmt_int 42);
  check Alcotest.string "exact thousand" "1,000" (H.Report.fmt_int 1000)

let () =
  Alcotest.run "harness"
    [
      ( "experiment",
        [
          Alcotest.test_case "compile sizes" `Quick test_compile_produces_sizes;
          Alcotest.test_case "cycles deterministic" `Quick
            test_measure_cycles_deterministic;
        ] );
      ( "table1",
        [ Alcotest.test_case "paper shape" `Slow test_table1_shape ] );
      ( "table3",
        [ Alcotest.test_case "monotone counters" `Slow test_table3_monotone ] );
      ( "figure4",
        [
          Alcotest.test_case "summary math" `Quick test_figure4_summary_math;
          Alcotest.test_case "bug-consistency detection" `Quick
            test_figure4_bug_consistency_detection;
          Alcotest.test_case "small run" `Slow test_figure4_small_run;
        ] );
      ( "table2",
        [
          Alcotest.test_case "signs" `Quick test_table2_sign;
          Alcotest.test_case "if-convert ablation" `Slow
            test_table2_if_convert_ablation;
          Alcotest.test_case "verification column deterministic" `Slow
            test_table2_deterministic;
        ] );
      ( "report",
        [ Alcotest.test_case "fmt_int" `Quick test_report_fmt_int ] );
    ]
