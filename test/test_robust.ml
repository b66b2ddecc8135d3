(** Robustness suite: the hardened-verification contract.

    Covers the fault-injection schedule language, the engine's crash
    containment and graceful-degradation ladder, the Store's
    length+checksum trailer against truncated/flipped files (including
    injected corrupt/partial saves), checkpoint save/load discipline, and
    the headline kill/resume determinism property. *)

module Engine = Overify_symex.Engine
module Checkpoint = Overify_symex.Checkpoint
module Store = Overify_solver.Store
module Binfile = Overify_solver.Binfile
module Solver = Overify_solver.Solver
module Bv = Overify_solver.Bv
module Fault = Overify_fault.Fault
module Cancel = Overify_fault.Cancel
module Costmodel = Overify_opt.Costmodel
module Programs = Overify_corpus.Programs
module H = Overify_harness

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let program name = Option.get (Programs.find name)

let compile ?(level = Costmodel.o0) name =
  H.Experiment.compile level (program name)

let faults spec =
  match Fault.parse spec with
  | Ok f -> f
  | Error msg -> Alcotest.failf "spec %S failed to parse: %s" spec msg

(* ------------- fault schedule language ------------- *)

let test_fault_parse_good () =
  List.iter
    (fun spec ->
      match Fault.parse spec with
      | Ok f -> check Alcotest.string "spec kept" spec (Fault.spec f)
      | Error msg -> Alcotest.failf "%S should parse: %s" spec msg)
    [
      "timeout@3"; "corrupt@1"; "partial@2"; "alloc@5"; "crash@7"; "kill@9";
      "stall@2"; "stall@1,timeout@3";
      "timeout@3,timeout@7"; "alloc@2;crash@5"; " timeout@1 , alloc@2 ";
      "seed:42"; "seed:42:5"; "seed:0:1,kill@3";
    ]

let test_fault_parse_bad () =
  List.iter
    (fun spec ->
      match Fault.parse spec with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%S should be rejected" spec)
    [
      "timeout@"; "timeout@x"; "timeout@0"; "timeout@-3"; "bogus@3"; "@3";
      "timeout"; "seed:"; "seed:x"; "seed:1:0"; "timeout@3@4"; "stall@";
      "stall@0";
    ]

let test_fault_fire_semantics () =
  let f = faults "crash@2,crash@4" in
  let fires =
    List.init 5 (fun _ -> Fault.fire (Some f) Fault.Worker_crash)
  in
  check (Alcotest.list bool) "fires on visits 2 and 4"
    [ false; true; false; true; false ] fires;
  check int "two fired" 2 (Fault.injected_total f);
  check int "crash counter" 2 (List.assoc "crash" (Fault.injected f));
  check int "timeout counter present and zero" 0
    (List.assoc "timeout" (Fault.injected f));
  (* other kinds don't tick this site *)
  check bool "other kind unaffected" false
    (Fault.fire (Some f) Fault.Solver_timeout);
  check bool "none is free" false (Fault.fire None Fault.Worker_crash)

(* ------------- cancellation tokens and the stall wedge ------------- *)

let test_cancel_token_basics () =
  let c = Cancel.create () in
  check bool "fresh token unset" false (Cancel.cancelled c);
  check Alcotest.string "no reason yet" "" (Cancel.reason c);
  Cancel.check (Some c);
  Cancel.check None;
  Cancel.cancel c ~reason:"first";
  Cancel.cancel c ~reason:"second";
  check bool "set" true (Cancel.cancelled c);
  check Alcotest.string "first reason wins" "first" (Cancel.reason c);
  match Cancel.check (Some c) with
  | exception Cancel.Cancelled r ->
      check Alcotest.string "check raises the reason" "first" r
  | () -> Alcotest.fail "check on a cancelled token must raise"

let test_cancel_deadline_self_arms () =
  let now = ref 0.0 in
  let c = Cancel.create ~deadline:10.0 ~now:(fun () -> !now) () in
  Cancel.check (Some c);
  check bool "before the deadline: unset" false (Cancel.cancelled c);
  now := 11.0;
  (* [cancelled] is a pure flag read — it must NOT consult the clock
     (that is what lets an injected stall wedge past its deadline until
     the watchdog fires) *)
  check bool "cancelled ignores the clock" false (Cancel.cancelled c);
  (match Cancel.check (Some c) with
  | exception Cancel.Cancelled r ->
      check Alcotest.string "self-armed reason" "deadline exceeded" r
  | () -> Alcotest.fail "past-deadline check must raise");
  check bool "check armed the flag" true (Cancel.cancelled c)

let test_stall_without_token_times_out () =
  (* a stall with no cancellation token attached must not hang a
     process that has no way to free it: it degrades to Timeout *)
  let ctx = Solver.create ~faults:(faults "stall@1") () in
  match Solver.check ctx [ Bv.tt ] with
  | exception Solver.Timeout -> ()
  | _ -> Alcotest.fail "token-less stall must raise Solver.Timeout"

let test_cancel_checked_before_query () =
  let c = Cancel.create () in
  Cancel.cancel c ~reason:"pre-cancelled";
  let ctx = Solver.create ~cancel:c () in
  match Solver.check ctx [ Bv.tt ] with
  | exception Cancel.Cancelled r ->
      check Alcotest.string "reason surfaces" "pre-cancelled" r
  | _ -> Alcotest.fail "a cancelled token must stop the query"

let test_stall_unblocks_on_cancel () =
  (* the watchdog scenario in miniature: the stall polls the token, so
     an explicit cancel from another thread frees it promptly *)
  let c = Cancel.create () in
  let ctx = Solver.create ~cancel:c ~faults:(faults "stall@1") () in
  let canceller =
    Thread.create
      (fun () ->
        Thread.delay 0.05;
        Cancel.cancel c ~reason:"unwedged")
      ()
  in
  (match Solver.check ctx [ Bv.tt ] with
  | exception Cancel.Cancelled r ->
      check Alcotest.string "watchdog reason surfaces" "unwedged" r
  | _ -> Alcotest.fail "stall must end in Cancelled once the token fires");
  Thread.join canceller

let test_engine_deadline_degrades () =
  (* a token whose deadline already passed: the run stops at the first
     cooperative check and reports a deadline_exceeded degradation
     instead of raising *)
  let c = compile "wc" in
  let cancel = Cancel.create ~deadline:(Unix.gettimeofday () -. 1.0) () in
  let r =
    Engine.run
      ~config:
        {
          Engine.default_config with
          Engine.input_size = 2;
          cancel = Some cancel;
        }
      c.H.Experiment.modul
  in
  check bool "run is degraded" false r.Engine.complete;
  check bool "deadline_exceeded entry present" true
    (List.exists
       (fun (d : Engine.degradation) ->
         d.Engine.d_kind = "deadline_exceeded"
         && d.Engine.d_where = "deadline exceeded")
       r.Engine.degradations)

(* ------------- containment and the degradation ladder ------------- *)

let config = { Engine.default_config with input_size = 2; timeout = 60.0 }

let verify ?faults c =
  Engine.run ~config:{ config with faults } c.H.Experiment.modul

let has_kind kind (r : Engine.result) =
  List.exists
    (fun (d : Engine.degradation) -> d.Engine.d_kind = kind)
    r.Engine.degradations

let test_crash_contained () =
  let c = compile "wc" in
  let clean = verify c in
  check bool "baseline completes" true clean.Engine.complete;
  let r = verify ~faults:(faults "crash@200") c in
  check bool "run survives the crash" true (r.Engine.paths >= 0);
  check bool "degraded" false r.Engine.complete;
  check bool "worker_crash reported" true (has_kind "worker_crash" r);
  check bool "verdict subset" true (r.Engine.paths <= clean.Engine.paths);
  check int "fault accounted" 1 (List.assoc "crash" r.Engine.faults_injected)

let test_solver_timeout_degrades () =
  let c = compile "wc" in
  let r = verify ~faults:(faults "timeout@3") c in
  check bool "survives" true (r.Engine.paths >= 0);
  check bool "solver_timeout reported" true (has_kind "solver_timeout" r);
  check int "fault accounted" 1 (List.assoc "timeout" r.Engine.faults_injected)

let test_alloc_exhaustion_degrades () =
  let c = compile "wc" in
  let r = verify ~faults:(faults "alloc@3") c in
  check bool "alloc_exhausted reported" true (has_kind "alloc_exhausted" r);
  check bool "degraded, not crashed" false r.Engine.complete

let test_kill_escapes () =
  let c = compile "wc" in
  match verify ~faults:(faults "kill@50") c with
  | (_ : Engine.result) -> Alcotest.fail "kill must not be contained"
  | exception Fault.Killed _ -> ()

let test_injected_runs_deterministic () =
  let c = compile "wc" in
  let r1 = verify ~faults:(faults "crash@200,timeout@2") c in
  let r2 = verify ~faults:(faults "crash@200,timeout@2") c in
  check int "paths agree" r1.Engine.paths r2.Engine.paths;
  check bool "exits agree" true (r1.Engine.exit_codes = r2.Engine.exit_codes);
  check bool "degradations agree" true
    (r1.Engine.degradations = r2.Engine.degradations)

(* ------------- store: trailer vs partial writes ------------- *)

let store_file dir = Filename.concat dir "solver-cache.bin"

let populate_store ?faults dir =
  let s = Store.load ?faults ~dir () in
  Store.add s "k1" Store.E_unsat;
  Store.add s "k2" (Store.E_sat [| 1L; 2L; 3L |]);
  Store.save s;
  s

(** Satellite: a byte-level truncation sweep.  Every proper prefix of a
    valid store file must load as an empty store — the length + checksum
    trailer catches truncations that keep the magic and header intact. *)
let test_store_truncation_sweep () =
  Binfile.with_temp_dir "overify_trunc" @@ fun dir ->
  ignore (populate_store dir);
  let full = In_channel.with_open_bin (store_file dir) In_channel.input_all in
  let n = String.length full in
  check bool "store written" true (n > 0);
  (let s = Store.load ~dir () in
   check int "intact file loads fully" 2 (Store.loaded s));
  for len = 0 to n - 1 do
    Out_channel.with_open_bin (store_file dir) (fun oc ->
        Out_channel.output_string oc (String.sub full 0 len));
    let s = Store.load ~dir () in
    if Store.loaded s <> 0 then
      Alcotest.failf "truncation to %d/%d bytes loaded %d entries" len n
        (Store.loaded s)
  done

let test_store_byte_flip_detected () =
  Binfile.with_temp_dir "overify_flip" @@ fun dir ->
  ignore (populate_store dir);
  let full = In_channel.with_open_bin (store_file dir) In_channel.input_all in
  (* flip one byte at a spread of positions, including header and payload *)
  let n = String.length full in
  List.iter
    (fun pos ->
      if pos < n then begin
        let b = Bytes.of_string full in
        Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x40));
        Out_channel.with_open_bin (store_file dir) (fun oc ->
            Out_channel.output_bytes oc b);
        let s = Store.load ~dir () in
        if Store.loaded s <> 0 then
          Alcotest.failf "flip at byte %d survived load (%d entries)" pos
            (Store.loaded s)
      end)
    [ 0; 5; 21; 25; 33; n / 2; n - 17; n - 1 ]

let test_store_injected_corruption_loads_empty () =
  List.iter
    (fun spec ->
      Binfile.with_temp_dir "overify_chaos_store" @@ fun dir ->
      let f = faults spec in
      ignore (populate_store ~faults:f dir);
      check int (spec ^ " fired") 1 (Fault.injected_total f);
      let s = Store.load ~dir () in
      check int (spec ^ " loads empty") 0 (Store.loaded s))
    [ "corrupt@1"; "partial@1" ]

(* ------------- checkpoint discipline ------------- *)

let budget_config ~max_paths ~dir =
  {
    Engine.default_config with
    Engine.input_size = 2;
    timeout = 60.0;
    max_paths;
    checkpoint_dir = Some dir;
    checkpoint_every = 2;
  }

let test_checkpoint_left_by_budget_run () =
  let c = compile "wc" in
  Binfile.with_temp_dir "overify_ck" @@ fun dir ->
  let r = Engine.run ~config:(budget_config ~max_paths:6 ~dir) c.H.Experiment.modul in
  check bool "budget run degraded" false r.Engine.complete;
  check bool "snapshot kept (resumable)" true
    (Sys.file_exists (Checkpoint.file ~dir));
  let digest = Checkpoint.fingerprint c.H.Experiment.modul ~input_size:2 in
  (match Checkpoint.load ~dir ~digest with
  | Some s ->
      check bool "frontier non-empty" true (s.Checkpoint.ck_frontier <> []);
      check bool "snapshot paths <= budget" true (s.Checkpoint.ck_paths <= 6)
  | None -> Alcotest.fail "snapshot did not load");
  (* a fingerprint mismatch must refuse the snapshot *)
  check bool "wrong digest refused" true
    (Checkpoint.load ~dir ~digest:"not-the-program" = None);
  (* resuming completes the run and deletes the snapshot *)
  let resumed =
    Engine.run
      ~config:
        { (budget_config ~max_paths:Engine.default_config.Engine.max_paths
             ~dir)
          with Engine.resume = true }
      c.H.Experiment.modul
  in
  check bool "resumed flag" true resumed.Engine.resumed;
  check bool "resumed run completes" true resumed.Engine.complete;
  check bool "snapshot deleted after completion" false
    (Sys.file_exists (Checkpoint.file ~dir))

let test_torn_checkpoint_ignored () =
  let c = compile "wc" in
  Binfile.with_temp_dir "overify_ck_torn" @@ fun dir ->
  let r = Engine.run ~config:(budget_config ~max_paths:6 ~dir) c.H.Experiment.modul in
  check bool "budget run degraded" false r.Engine.complete;
  let path = Checkpoint.file ~dir in
  let full = In_channel.with_open_bin path In_channel.input_all in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc
        (String.sub full 0 (String.length full * 2 / 3)));
  let digest = Checkpoint.fingerprint c.H.Experiment.modul ~input_size:2 in
  check bool "torn snapshot loads as none" true
    (Checkpoint.load ~dir ~digest = None);
  (* resume against the torn file silently starts fresh and completes *)
  let resumed =
    Engine.run
      ~config:
        { (budget_config ~max_paths:Engine.default_config.Engine.max_paths
             ~dir)
          with Engine.resume = true }
      c.H.Experiment.modul
  in
  check bool "fresh start, not resumed" false resumed.Engine.resumed;
  check bool "completes" true resumed.Engine.complete

(* a snapshot framed with the previous format version holds states of the
   previous layout: it loads as none, and resume starts fresh *)
let test_old_version_checkpoint_ignored () =
  let c = compile "wc" in
  Binfile.with_temp_dir "overify_ck_old" @@ fun dir ->
  let r = Engine.run ~config:(budget_config ~max_paths:6 ~dir) c.H.Experiment.modul in
  check bool "budget run degraded" false r.Engine.complete;
  let path = Checkpoint.file ~dir in
  let frame = In_channel.with_open_bin path In_channel.input_all in
  let payload =
    match
      Binfile.parse ~magic:Checkpoint.magic ~version:Checkpoint.version frame
    with
    | Some p -> p
    | None -> Alcotest.fail "snapshot is not a current frame"
  in
  check bool "reframed" true
    (Binfile.write ~path ~magic:Checkpoint.magic
       ~version:(Checkpoint.version - 1) payload);
  let digest = Checkpoint.fingerprint c.H.Experiment.modul ~input_size:2 in
  check bool "previous version loads as none" true
    (Checkpoint.load ~dir ~digest = None);
  let resumed =
    Engine.run
      ~config:
        { (budget_config ~max_paths:Engine.default_config.Engine.max_paths
             ~dir)
          with Engine.resume = true }
      c.H.Experiment.modul
  in
  check bool "fresh start, not resumed" false resumed.Engine.resumed;
  check bool "completes" true resumed.Engine.complete

(* a resumed run's instruction budget includes the snapshot's
   instructions whatever the worker count.  Given room for one more
   instruction, `Parallel 1 stops exactly where `Dfs does, and
   `Parallel 2 stops on inst_budget within one budget-check interval
   (2048 steps, one instruction each at -O0) per worker *)
let test_resumed_inst_budget () =
  let c = compile "wc" in
  let m = c.H.Experiment.modul in
  Binfile.with_temp_dir "overify_ck_insts" @@ fun dir ->
  let cfg =
    {
      (budget_config ~max_paths:400 ~dir) with
      Engine.input_size = 3;
      checkpoint_every = 64;
    }
  in
  check bool "budget run degraded" false
    (Engine.run ~config:cfg m).Engine.complete;
  let snap =
    match
      Checkpoint.load ~dir
        ~digest:(Checkpoint.fingerprint m ~input_size:3)
    with
    | Some s -> s
    | None -> Alcotest.fail "snapshot did not load"
  in
  let jobs = 2 and interval = 2048 in
  check bool "snapshot holds more than the allowed overshoot" true
    (snap.Checkpoint.ck_insts > jobs * interval);
  let max_insts = snap.Checkpoint.ck_insts + 1 in
  let resume searcher =
    Engine.run
      ~config:
        {
          cfg with
          Engine.max_paths = Engine.default_config.Engine.max_paths;
          max_insts;
          resume = true;
          searcher;
        }
      m
  in
  let dfs = resume `Dfs and par1 = resume (`Parallel 1) in
  check bool "dfs: inst_budget reported" true (has_kind "inst_budget" dfs);
  check Alcotest.string "parallel 1 = dfs"
    (Engine.result_to_json ~deterministic:true dfs)
    (Engine.result_to_json ~deterministic:true par1);
  check int "parallel 1 = dfs: instructions" dfs.Engine.instructions
    par1.Engine.instructions;
  check bool "parallel 1 = dfs: exit codes" true
    (dfs.Engine.exit_codes = par1.Engine.exit_codes);
  let par = resume (`Parallel jobs) in
  check bool "resumed flag" true par.Engine.resumed;
  check bool "inst_budget reported" true (has_kind "inst_budget" par);
  if par.Engine.instructions > max_insts + (jobs * interval) then
    Alcotest.failf "stopped at %d instructions, budget %d"
      par.Engine.instructions max_insts

(* ------------- the headline: kill, resume, identical verdicts ------------- *)

let test_kill_resume_identical () =
  let c = compile "wc" in
  let clean = verify c in
  check bool "baseline completes" true clean.Engine.complete;
  let k = H.Chaos.kill_and_resume ~config c ~clean in
  if not k.H.Chaos.k_ok then
    Alcotest.failf "kill/resume: %s" k.H.Chaos.k_detail

(* ------------- chaos sweep mini (one program) ------------- *)

let test_chaos_sweep_smoke () =
  let r =
    H.Chaos.run ~input_size:2 ~timeout:60.0 ~programs:[ program "wc" ]
      ~kill_resume:false ~json_path:"" ()
  in
  check int "no contract violations" 0 r.H.Chaos.failures;
  check bool "some fault fired somewhere" true
    (List.exists (fun cl -> cl.H.Chaos.c_injected > 0) r.H.Chaos.cells)

let () =
  Alcotest.run "robust"
    [
      ( "faults",
        [
          Alcotest.test_case "parse good" `Quick test_fault_parse_good;
          Alcotest.test_case "parse bad" `Quick test_fault_parse_bad;
          Alcotest.test_case "fire semantics" `Quick test_fault_fire_semantics;
        ] );
      ( "cancellation",
        [
          Alcotest.test_case "token basics" `Quick test_cancel_token_basics;
          Alcotest.test_case "deadline self-arms" `Quick
            test_cancel_deadline_self_arms;
          Alcotest.test_case "stall without token times out" `Quick
            test_stall_without_token_times_out;
          Alcotest.test_case "cancel checked before query" `Quick
            test_cancel_checked_before_query;
          Alcotest.test_case "stall unblocks on cancel" `Quick
            test_stall_unblocks_on_cancel;
          Alcotest.test_case "engine deadline degrades" `Quick
            test_engine_deadline_degrades;
        ] );
      ( "containment",
        [
          Alcotest.test_case "crash contained" `Quick test_crash_contained;
          Alcotest.test_case "solver timeout degrades" `Quick
            test_solver_timeout_degrades;
          Alcotest.test_case "alloc exhaustion degrades" `Quick
            test_alloc_exhaustion_degrades;
          Alcotest.test_case "kill escapes" `Quick test_kill_escapes;
          Alcotest.test_case "faulted runs deterministic" `Quick
            test_injected_runs_deterministic;
        ] );
      ( "store",
        [
          Alcotest.test_case "truncation sweep" `Quick
            test_store_truncation_sweep;
          Alcotest.test_case "byte flips detected" `Quick
            test_store_byte_flip_detected;
          Alcotest.test_case "injected corruption loads empty" `Quick
            test_store_injected_corruption_loads_empty;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "budget run leaves a resumable snapshot" `Quick
            test_checkpoint_left_by_budget_run;
          Alcotest.test_case "torn snapshot ignored" `Quick
            test_torn_checkpoint_ignored;
          Alcotest.test_case "previous version ignored" `Quick
            test_old_version_checkpoint_ignored;
          Alcotest.test_case "resumed runs count snapshot instructions"
            `Quick test_resumed_inst_budget;
        ] );
      ( "kill-resume",
        [
          Alcotest.test_case "byte-identical verdicts" `Slow
            test_kill_resume_identical;
        ] );
      ( "chaos",
        [ Alcotest.test_case "sweep smoke" `Slow test_chaos_sweep_smoke ] );
    ]
