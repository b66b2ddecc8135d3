(** Optimizer tests: per-pass unit tests, pipeline invariants, and the
    central QCheck property — every corpus program behaves identically at
    every optimization level on random inputs (differential testing against
    the -O0 oracle). *)

module I = Overify_ir.Ir
module Frontend = Overify_minic.Frontend
module Interp = Overify_interp.Interp
module Costmodel = Overify_opt.Costmodel
module Pipeline = Overify_opt.Pipeline
module Stats = Overify_opt.Stats
module Programs = Overify_corpus.Programs
module Vclib = Overify_vclib.Vclib
module Obs = Overify_obs.Obs

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

(* paranoid mode (IR verification after every pass) comes from the
   OVERIFY_PARANOID environment variable, which test/dune sets for the whole
   suite; test_paranoid_profile_on below fails the run if that wiring is
   ever lost *)

let compile_at level src =
  (Pipeline.optimize level (Frontend.compile_source src)).Pipeline.modul

let compile_fn level src =
  I.find_func_exn (compile_at level src) "main"

let static_size m =
  List.fold_left (fun a f -> a + I.func_size f) 0 m.I.funcs

let count_insts pred (fn : I.func) =
  let n = ref 0 in
  I.iter_insts (fun _ i -> if pred i then incr n) fn;
  !n

let count_branches fn =
  List.length
    (List.filter
       (fun (b : I.block) ->
         match b.I.term with I.Cbr (_, t, e) -> t <> e | _ -> false)
       fn.I.blocks)

let run_all_levels ?(input = "") src =
  List.map
    (fun level ->
      let m = compile_at level src in
      List.iter (Overify_ir.Verify.check_exn) m.I.funcs;
      (level.Costmodel.name, Interp.run m ~input))
    Costmodel.all

let same_behaviour ?input src =
  match run_all_levels ?input src with
  | [] -> ()
  | (name0, r0) :: rest ->
      List.iter
        (fun (name, (r : Interp.result)) ->
          if
            r.Interp.exit_code <> r0.Interp.exit_code
            || r.Interp.output <> r0.Interp.output
          then
            Alcotest.failf "%s and %s disagree: exit %Ld/%Ld output %S/%S"
              name0 name r0.Interp.exit_code r.Interp.exit_code
              r0.Interp.output r.Interp.output)
        rest

(* ------------- constant folding ------------- *)

let test_constfold_folds () =
  let src = "int main(void) { int x = 2 + 3 * 4; return x - 14; }" in
  let fn = compile_fn Costmodel.o2 src in
  check int "everything folded away" 0
    (count_insts (function I.Bin _ -> true | _ -> false) fn)

let test_constfold_preserves_div_by_zero () =
  (* 1/0 must not be folded away into a constant: the trap is observable *)
  let src = "int main(void) { int z = 0; return 1 / z; }" in
  List.iter
    (fun level ->
      let m = compile_at level src in
      let r = Interp.run m ~input:"" in
      check bool
        (Printf.sprintf "%s keeps the trap" level.Costmodel.name)
        true
        (r.Interp.trap = Some Interp.Div_by_zero))
    Costmodel.all

let test_strength_reduction () =
  let src = "int main(void) { int n = __input_size(); return n * 8 + n / 1; }" in
  let fn = compile_fn Costmodel.o2 src in
  check int "mul by 8 became shift" 0
    (count_insts (function I.Bin (_, I.Mul, _, _, _) -> true | _ -> false) fn)

(* ------------- mem2reg ------------- *)

let test_mem2reg_promotes () =
  let src = {|
int main(void) {
  int a = 1;
  int b = 2;
  for (int i = 0; i < 3; i++) a += b;
  return a;
}
|} in
  let fn = compile_fn Costmodel.o2 src in
  check int "no allocas left" 0
    (count_insts (function I.Alloca _ -> true | _ -> false) fn)

(* regression: a do-while loop's induction variable must get a header phi *)
let test_mem2reg_do_while () =
  let src = {|
int main(void) {
  int col = 0;
  do { col++; } while (col % 4 != 0);
  return col;
}
|} in
  List.iter
    (fun level ->
      let r = Interp.run ~fuel:100_000 (compile_at level src) ~input:"" in
      check bool
        (Printf.sprintf "%s terminates" level.Costmodel.name)
        true (r.Interp.trap = None);
      check int
        (Printf.sprintf "%s returns 4" level.Costmodel.name)
        4
        (Int64.to_int r.Interp.exit_code))
    Costmodel.all

let test_mem2reg_respects_escapes () =
  (* a variable whose address escapes must not be promoted *)
  let src = {|
void set(int *q) { *q = 9; }
int main(void) { int x = 1; set(&x); return x; }
|} in
  same_behaviour src

(* ------------- SROA ------------- *)

let test_sroa_splits () =
  let src = {|
int main(void) {
  int pair[2];
  pair[0] = 3;
  pair[1] = 4;
  return pair[0] * 10 + pair[1];
}
|} in
  let m0 = Frontend.compile_source src in
  let r = Pipeline.optimize Costmodel.o2 m0 in
  check bool "sroa fired" true (r.Pipeline.stats.Stats.aggregates_split >= 1);
  let res = Interp.run r.Pipeline.modul ~input:"" in
  check int "34" 34 (Int64.to_int res.Interp.exit_code)

(* ------------- DCE ------------- *)

let test_dce_removes_dead_code () =
  let src = {|
int main(void) {
  int unused = 5 * 5;
  int dead_store;
  dead_store = unused + 1;
  return 2;
}
|} in
  let fn = compile_fn Costmodel.o2 src in
  check int "body reduced to ret" 0 (count_insts (fun _ -> true) fn)

(* ------------- if-conversion ------------- *)

let test_if_convert_removes_branches () =
  let src = {|
int main(void) {
  int c = __input(0);
  int r;
  if (c > 64) r = c - 64; else r = c;
  return r;
}
|} in
  let fn = compile_fn Costmodel.overify src in
  check int "no conditional branches" 0 (count_branches fn);
  check bool "has a select" true
    (count_insts (function I.Select _ -> true | _ -> false) fn >= 1);
  same_behaviour ~input:"Z" src

let test_if_convert_flattens_shortcircuit () =
  let src = {|
int main(void) {
  int c = __input(0);
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_';
}
|} in
  let fn = compile_fn Costmodel.overify src in
  check int "fully flattened" 0 (count_branches fn);
  List.iter (fun i -> same_behaviour ~input:(String.make 1 (Char.chr i)) src)
    [ 0; 64; 65; 90; 95; 97; 122; 200 ]

let test_if_convert_keeps_side_effects_guarded () =
  (* an arm with a call must NOT be speculated *)
  let src = {|
int main(void) {
  if (__input(0) == 'x') __output('!');
  return 0;
}
|} in
  let fn = compile_fn Costmodel.overify src in
  check bool "branch survives" true (count_branches fn >= 1);
  same_behaviour ~input:"x" src;
  same_behaviour ~input:"y" src

let test_if_convert_respects_cpu_budget () =
  (* a big arm is speculated under -OVERIFY but not under -O3 *)
  let src = {|
int main(void) {
  int c = __input(0);
  int r = 0;
  if (c > 10) {
    r = c * 3 + (c << 2) - (c ^ 5) + (c & 3) + (c | 7) + c / 3
        + c * 5 + (c << 1) - (c ^ 9) + (c & 1);
  }
  return r;
}
|} in
  let ov = compile_fn Costmodel.overify src in
  let o3 = compile_fn Costmodel.o3 src in
  check bool "o3 keeps more branches" true
    (count_branches o3 >= count_branches ov)

(* ------------- if-conversion: direct IR-level safety tests ------------- *)

module Builder = Overify_ir.Builder
module If_convert = Overify_opt.If_convert
module Loop_unswitch = Overify_opt.Loop_unswitch

(** A hand-built SSA diamond: [x = __input(0); if (x > 0) y = <arm>; return
    phi(y, x)].  The arm instruction decides whether speculation is legal. *)
let build_diamond arm : I.func =
  let b = Builder.create ~name:"main" ~params:[] ~ret:I.I32 in
  let entry_bid = Builder.current b in
  let slot = Builder.entry_alloca b I.I32 1 in
  Builder.store b I.I32 (I.imm I.I32 7L) slot;
  let x = Option.get (Builder.call b I.I32 "__input" [ I.imm I.I32 0L ]) in
  let then_b = Builder.new_block b in
  let merge = Builder.new_block b in
  let cond = Builder.cmp b I.Sgt I.I32 x (I.imm I.I32 0L) in
  Builder.term b (I.Cbr (cond, then_b, merge));
  Builder.switch_to b then_b;
  let y =
    match arm with
    | `Add -> Builder.bin b I.Add I.I32 x (I.imm I.I32 1L)
    | `Div -> Builder.bin b I.Sdiv I.I32 (I.imm I.I32 100L) x
    | `Load -> Builder.load b I.I32 slot
  in
  Builder.term b (I.Br merge);
  Builder.switch_to b merge;
  let d = Builder.fresh b in
  Builder.add_inst b (I.Phi (d, I.I32, [ (then_b, y); (entry_bid, x) ]));
  Builder.term b (I.Ret (Some (I.Reg d)));
  Builder.finish b

let diamond_behaviours (fn : I.func) =
  let m = { I.globals = []; funcs = [ fn ] } in
  List.map
    (fun input ->
      let r = Interp.run m ~input in
      (r.Interp.exit_code, r.Interp.trap))
    [ "\000"; "\001"; "\005"; "\255" ]

let test_if_convert_ir_safe_arm_converts () =
  let fn = build_diamond `Add in
  let before = diamond_behaviours fn in
  let (fn', changed) = If_convert.run Costmodel.overify (Stats.create ()) fn in
  Overify_ir.Verify.check_exn fn';
  check bool "converted" true changed;
  check int "no conditional branches left" 0 (count_branches fn');
  check bool "select materialized" true
    (count_insts (function I.Select _ -> true | _ -> false) fn' >= 1);
  check bool "behaviour preserved" true (before = diamond_behaviours fn')

let test_if_convert_ir_division_arm_blocked () =
  (* speculating 100 / x would introduce a division-by-zero trap on the
     x = 0 path: the arm must stay guarded *)
  let fn = build_diamond `Div in
  let (fn', changed) = If_convert.run Costmodel.overify (Stats.create ()) fn in
  check bool "not converted" false changed;
  check bool "branch survives" true (count_branches fn' >= 1);
  let m = { I.globals = []; funcs = [ fn' ] } in
  check bool "x = 0 still takes the safe path" true
    ((Interp.run m ~input:"\000").Interp.trap = None)

let test_if_convert_ir_load_arm_blocked () =
  (* loads may fault and are not speculatable in this IR: the arm must stay
     guarded even though this particular load happens to be safe *)
  let fn = build_diamond `Load in
  let (fn', changed) = If_convert.run Costmodel.overify (Stats.create ()) fn in
  check bool "not converted" false changed;
  check bool "branch survives" true (count_branches fn' >= 1)

(* ------------- loop unswitching ------------- *)

let test_unswitch_fires_and_preserves () =
  let src = {|
int work(int flag) {
  int total = 0;
  for (int i = 0; i < __input_size(); i++) {
    if (flag) total += __input(i);
    else total -= __input(i);
  }
  return total;
}
int main(void) { return work(__input(0) & 1) & 0xff; }
|} in
  let m0 = Frontend.compile_source src in
  let r = Pipeline.optimize { Costmodel.o3 with Costmodel.inline_threshold = 0 } m0 in
  check bool "unswitched" true (r.Pipeline.stats.Stats.loops_unswitched >= 1);
  List.iter
    (fun input -> same_behaviour ~input src)
    [ "a"; "bcd"; "\001xyz"; "" ]

(* direct IR-level unswitch tests: run the pass on the frontend's memory-form
   output, bypassing the pipeline, so rejections can't be masked by an
   earlier pass rewriting the loop *)

let main_fn (m : I.modul) =
  List.find (fun (f : I.func) -> f.I.fname = "main") m.I.funcs

(** Run [Loop_unswitch.run] directly on [main]; returns the rewritten module,
    whether the pass changed anything, and how many loops it unswitched. *)
let unswitch_direct src =
  let m = Frontend.compile_source src in
  let stats = Stats.create () in
  let (fn', changed) = Loop_unswitch.run Costmodel.o3 stats (main_fn m) in
  Overify_ir.Verify.check_exn fn';
  (I.update_func m fn', changed, stats.Stats.loops_unswitched)

let test_unswitch_ir_nested_invariant () =
  let src = {|
int main(void) {
  int flag = __input(0) & 1;
  int total = 0;
  for (int i = 0; i < 3; i++) {
    for (int j = 0; j < __input_size(); j++) {
      if (flag) total += __input(j);
      else total -= __input(j);
    }
  }
  return total & 0xff;
}
|} in
  let (m', changed, n) = unswitch_direct src in
  check bool "changed" true changed;
  check bool "unswitched at least one loop" true (n >= 1);
  let m0 = Frontend.compile_source src in
  List.iter
    (fun input ->
      let a = Interp.run m0 ~input and b = Interp.run m' ~input in
      check bool ("same behaviour on " ^ String.escaped input) true
        (a.Interp.exit_code = b.Interp.exit_code
        && a.Interp.output = b.Interp.output
        && a.Interp.trap = b.Interp.trap))
    [ ""; "\001"; "\002abc"; "\003\255\254\253" ]

let test_unswitch_ir_loop_written_condition_blocked () =
  (* the condition slot is stored inside the loop: not invariant, so hoisting
     its test out of the loop would freeze the first iteration's value *)
  let src = {|
int main(void) {
  int flag = __input(0) & 1;
  int total = 0;
  for (int i = 0; i < __input_size(); i++) {
    if (flag) total += 1;
    flag = total & 1;
  }
  return total;
}
|} in
  let (_, changed, n) = unswitch_direct src in
  check bool "not changed" false changed;
  check int "no loop unswitched" 0 n

let test_unswitch_ir_call_condition_blocked () =
  (* the condition is recomputed from a call every iteration: calls are
     never part of a hoistable condition chain *)
  let src = {|
int main(void) {
  int total = 0;
  for (int i = 0; i < 4; i++) {
    if (__input(0) & 1) total += 3;
  }
  return total;
}
|} in
  let (_, changed, n) = unswitch_direct src in
  check bool "not changed" false changed;
  check int "no loop unswitched" 0 n

(* ------------- loop unrolling (peeling) ------------- *)

let test_unroll_constant_loop () =
  let src = {|
int main(void) {
  int sum = 0;
  for (int i = 0; i < 6; i++) sum += i * i;
  return sum;
}
|} in
  let m0 = Frontend.compile_source src in
  let r = Pipeline.optimize Costmodel.overify m0 in
  check bool "unrolled" true (r.Pipeline.stats.Stats.loops_unrolled >= 1);
  let fn = I.find_func_exn r.Pipeline.modul "main" in
  (* the loop should be gone entirely: straight-line constant return *)
  check int "no loops left" 0 (List.length (Overify_ir.Loop.find fn));
  check int "55" 55
    (Int64.to_int (Interp.run r.Pipeline.modul ~input:"").Interp.exit_code)

let test_unroll_respects_trip_limit () =
  let src = {|
int main(void) {
  int sum = 0;
  for (int i = 0; i < 100000; i++) sum += 1;
  return sum > 0;
}
|} in
  let m0 = Frontend.compile_source src in
  let r = Pipeline.optimize Costmodel.overify m0 in
  check int "not unrolled" 0 r.Pipeline.stats.Stats.loops_unrolled

let test_unroll_downward_loop () =
  let src = {|
int main(void) {
  int sum = 0;
  for (int i = 10; i > 0; i -= 2) sum += i;
  return sum;
}
|} in
  let m0 = Frontend.compile_source src in
  let r = Pipeline.optimize Costmodel.overify m0 in
  check bool "unrolled downward" true (r.Pipeline.stats.Stats.loops_unrolled >= 1);
  check int "30" 30
    (Int64.to_int (Interp.run r.Pipeline.modul ~input:"").Interp.exit_code)

(* ------------- inlining ------------- *)

let test_inline_specializes () =
  let src = {|
int twice(int x) { return x + x; }
int main(void) { return twice(21); }
|} in
  let fn = compile_fn Costmodel.overify src in
  check int "no calls left" 0
    (count_insts (function I.Call _ -> true | _ -> false) fn);
  (* and specialization folds everything *)
  check bool "folded to constant return" true (I.func_size fn <= 2)

let test_inline_skips_recursion () =
  let src = {|
int fact(int n) { return n <= 1 ? 1 : n * fact(n - 1); }
int main(void) { return fact(5); }
|} in
  let m = compile_at Costmodel.overify src in
  check bool "fact still exists" true (I.find_func m "fact" <> None);
  check int "120" 120 (Int64.to_int (Interp.run m ~input:"").Interp.exit_code)

let test_inline_threshold () =
  let src = {|
int helper(int x) { return x * 2 + 1; }
int main(void) { return helper(3); }
|} in
  let m_o0 = compile_at Costmodel.o0 src in
  let fn = I.find_func_exn m_o0 "main" in
  check bool "o0 keeps the call" true
    (count_insts (function I.Call _ -> true | _ -> false) fn >= 1)

(* ------------- jump threading ------------- *)

let test_jump_threading_same_condition () =
  (* the paper's 3 example: a branch jumping to a block that re-tests the
     same condition gets threaded through *)
  let src = {|
int main(void) {
  int c = __input(0);
  int r = 0;
  if (c > 10) { __output('a'); }
  if (c > 10) { __output('b'); }   /* same condition: correlated */
  else r = 1;
  return r;
}
|} in
  (* verify semantics at every level and that -O3 threading is counted when
     the shapes line up; the structural claim is checked via path counts *)
  same_behaviour ~input:"\000" src;
  same_behaviour ~input:"Z" src;
  let m0 = Frontend.compile_source src in
  let o3 = Pipeline.optimize Costmodel.o3 m0 in
  let r =
    Overify_symex.Engine.run
      ~config:{ Overify_symex.Engine.default_config with input_size = 1 }
      o3.Pipeline.modul
  in
  (* only two behaviours exist; an un-threaded exploration would fork the
     second test again *)
  check int "two paths after optimization" 2 r.Overify_symex.Engine.paths

(* threading L0 -> L1 -> L2 strands L1 and L3, the block only L1 reached;
   L2's phi entry from L3 carries a value that no longer dominates that
   edge, so the pass must drop the stranded blocks for the SSA check *)
let test_jump_threading_drops_stranded_blocks () =
  let b = Overify_ir.Builder.create ~name:"f" ~params:[ I.I32 ] ~ret:I.I32 in
  let module B = Overify_ir.Builder in
  let p = I.Reg (List.hd (B.param_regs b)) in
  let l1 = B.new_block b and l2 = B.new_block b in
  let l3 = B.new_block b and l4 = B.new_block b in
  let c = B.cmp b I.Sgt I.I32 p (I.imm I.I32 0L) in
  let v = B.bin b I.Add I.I32 p (I.imm I.I32 1L) in
  B.term b (I.Cbr (c, l1, l4));
  B.switch_to b l1;
  B.term b (I.Cbr (c, l2, l3));
  B.switch_to b l3;
  B.term b (I.Br l2);
  B.switch_to b l2;
  let r = B.fresh b in
  B.add_inst b (I.Phi (r, I.I32, [ (l1, I.imm I.I32 0L); (l3, v) ]));
  B.term b (I.Ret (Some (I.Reg r)));
  B.switch_to b l4;
  B.term b (I.Ret (Some (I.imm I.I32 0L)));
  let fn = B.finish b in
  Overify_ir.Verify.check_exn ~ssa:true fn;
  let (fn', changed) = Overify_opt.Jump_threading.run (Stats.create ()) fn in
  check bool "threaded" true changed;
  Overify_ir.Verify.check_exn ~ssa:true fn';
  check int "stranded blocks removed" 3 (I.num_blocks fn')

(* ------------- dead-loop deletion ------------- *)

let test_loop_delete_zero_trip () =
  let src = {|
int main(void) {
  int sum = 7;
  for (int i = 10; i < 3; i++) sum += i;   /* never runs */
  return sum;
}
|} in
  let fn = compile_fn Costmodel.overify src in
  check int "no loops left" 0 (List.length (Overify_ir.Loop.find fn));
  check int "returns 7" 7
    (Int64.to_int
       (Interp.run (compile_at Costmodel.overify src) ~input:"").Interp.exit_code)

(* [loops_deleted] counts loops: one application deletes both of these *)
let test_loop_delete_counts_loops () =
  let src = {|
int main(void) {
  int sum = 7;
  for (int i = 10; i < 3; i++) sum += i;   /* never runs */
  for (int j = 20; j < 5; j++) sum += j;   /* never runs */
  return sum;
}
|} in
  let r = Pipeline.optimize Costmodel.overify (Frontend.compile_source src) in
  check int "two loops deleted" 2 r.Pipeline.stats.Stats.loops_deleted;
  check int "no loops left" 0
    (List.length
       (Overify_ir.Loop.find (I.find_func_exn r.Pipeline.modul "main")))

let test_loop_delete_keeps_live_loops () =
  let src = {|
int main(void) {
  int sum = 0;
  for (int i = 0; i < __input_size(); i++) sum += __input(i);
  return sum & 0xff;
}
|} in
  let fn = compile_fn Costmodel.overify src in
  check bool "input-bounded loop survives" true
    (List.length (Overify_ir.Loop.find fn) >= 1);
  same_behaviour ~input:"xyz" src

(* ------------- loop passes on hand-built loops ------------- *)

(* These run one loop pass directly on IR the corpus does not produce.  The
   suite runs in paranoid mode, so every peel, deletion and inserted
   preheader is also checked against a fresh Loop.find. *)

module Licm = Overify_opt.Licm
module Loop_unroll = Overify_opt.Loop_unroll
module Loop_delete = Overify_opt.Loop_delete
module Loop = Overify_ir.Loop

let exit_codes (fn : I.func) inputs =
  let m = { I.globals = []; funcs = [ fn ] } in
  List.map (fun input -> (Interp.run m ~input).Interp.exit_code) inputs

let imm32 v = I.imm I.I32 v

(** [phi b ty incoming]: a phi appended to the current block. *)
let phi b ty incoming =
  let d = Builder.fresh b in
  Builder.add_inst b (I.Phi (d, ty, incoming));
  I.Reg d

(** Enter a new block [h] from two blocks that branch only to it, so [h]
    has two outside predecessors and no preheader; returns them. *)
let two_entries b h =
  let x = Option.get (Builder.call b I.I32 "__input" [ imm32 0L ]) in
  let ea = Builder.new_block b and eb = Builder.new_block b in
  Builder.term b (I.Cbr (Builder.cmp b I.Sgt I.I32 x (imm32 0L), ea, eb));
  Builder.switch_to b ea;
  Builder.term b (I.Br h);
  Builder.switch_to b eb;
  Builder.term b (I.Br h);
  (x, ea, eb)

(* sum = 0; for (i = x > 0 ? 0 : 1; i < 4; i++) sum += x * 3; the header
   has two outside entries, and x * 3 is invariant *)
let test_licm_hoists_into_new_preheader () =
  let b = Builder.create ~name:"main" ~params:[] ~ret:I.I32 in
  let h = Builder.new_block b and body = Builder.new_block b in
  let out = Builder.new_block b in
  let (x, ea, eb) = two_entries b h in
  Builder.switch_to b h;
  let i1 = Builder.fresh b and s1 = Builder.fresh b in
  let i = phi b I.I32 [ (ea, imm32 0L); (eb, imm32 1L); (body, I.Reg i1) ] in
  let s = phi b I.I32 [ (ea, imm32 0L); (eb, imm32 0L); (body, I.Reg s1) ] in
  Builder.term b (I.Cbr (Builder.cmp b I.Slt I.I32 i (imm32 4L), body, out));
  Builder.switch_to b body;
  let k = Builder.bin b I.Mul I.I32 x (imm32 3L) in
  Builder.add_inst b (I.Bin (s1, I.Add, I.I32, s, k));
  Builder.add_inst b (I.Bin (i1, I.Add, I.I32, i, imm32 1L));
  Builder.term b (I.Br h);
  Builder.switch_to b out;
  Builder.term b (I.Ret (Some s));
  let fn = Builder.finish b in
  let stats = Stats.create () in
  let (fn', changed) = Licm.run stats fn in
  Overify_ir.Verify.check_exn ~ssa:true fn';
  check bool "changed" true changed;
  check int "one instruction hoisted" 1 stats.Stats.insts_hoisted;
  check int "one block added" (I.num_blocks fn + 1) (I.num_blocks fn');
  (match Loop.find fn' with
  | [ { Loop.preheader = Some p; _ } ] ->
      check bool "the preheader is new" true (p <> ea && p <> eb);
      check bool "x * 3 sits in it" true
        (List.exists
           (function I.Bin (_, I.Mul, _, _, _) -> true | _ -> false)
           (I.find_block fn' p).I.insts)
  | _ -> Alcotest.fail "expected one loop with a preheader");
  let inputs = [ "\000"; "\005" ] in
  check (Alcotest.list Alcotest.int64) "same exit codes" (exit_codes fn inputs)
    (exit_codes fn' inputs)

(* the entry block is its own loop: no block can precede it, so the loop
   gets no preheader and nothing is hoisted *)
let test_licm_entry_header () =
  let b = Builder.create ~name:"main" ~params:[] ~ret:I.I32 in
  let entry = Builder.current b and out = Builder.new_block b in
  let x = Option.get (Builder.call b I.I32 "__input" [ imm32 0L ]) in
  let k = Builder.bin b I.Mul I.I32 x (imm32 3L) in
  Builder.term b (I.Cbr (Builder.cmp b I.Slt I.I32 k (imm32 0L), entry, out));
  Builder.switch_to b out;
  Builder.term b (I.Ret (Some k));
  let fn = Builder.finish b in
  let (fn', changed) = Licm.run (Stats.create ()) fn in
  check bool "unchanged" false changed;
  check bool "same function" true (fn = fn');
  check bool "the loop has no preheader" true
    (List.map (fun l -> l.Loop.preheader) (Loop.find fn') = [ None ])

(* an outer loop and an inner one, each entered from two blocks: one
   application gives both a preheader, the inner one inside the outer loop *)
let test_licm_nested_preheaders () =
  let b = Builder.create ~name:"main" ~params:[] ~ret:I.I32 in
  let h1 = Builder.new_block b and q = Builder.new_block b in
  let qa = Builder.new_block b and qb = Builder.new_block b in
  let h2 = Builder.new_block b and body2 = Builder.new_block b in
  let latch1 = Builder.new_block b and out = Builder.new_block b in
  let (x, ea, eb) = two_entries b h1 in
  Builder.switch_to b h1;
  let i1 = Builder.fresh b and t = Builder.fresh b in
  let i = phi b I.I32 [ (ea, imm32 0L); (eb, imm32 1L); (latch1, I.Reg i1) ] in
  let s = phi b I.I32 [ (ea, imm32 0L); (eb, imm32 0L); (latch1, I.Reg t) ] in
  Builder.term b (I.Cbr (Builder.cmp b I.Slt I.I32 i (imm32 3L), q, out));
  Builder.switch_to b q;
  Builder.term b (I.Cbr (Builder.cmp b I.Sgt I.I32 x (imm32 5L), qa, qb));
  Builder.switch_to b qa;
  Builder.term b (I.Br h2);
  Builder.switch_to b qb;
  Builder.term b (I.Br h2);
  Builder.switch_to b h2;
  let j1 = Builder.fresh b and t1 = Builder.fresh b in
  let j = phi b I.I32 [ (qa, imm32 0L); (qb, imm32 0L); (body2, I.Reg j1) ] in
  Builder.add_inst b (I.Phi (t, I.I32, [ (qa, s); (qb, s); (body2, I.Reg t1) ]));
  Builder.term b (I.Cbr (Builder.cmp b I.Slt I.I32 j (imm32 2L), body2, latch1));
  Builder.switch_to b body2;
  let k = Builder.bin b I.Mul I.I32 x (imm32 7L) in
  Builder.add_inst b (I.Bin (t1, I.Add, I.I32, I.Reg t, k));
  Builder.add_inst b (I.Bin (j1, I.Add, I.I32, j, imm32 1L));
  Builder.term b (I.Br h2);
  Builder.switch_to b latch1;
  Builder.add_inst b (I.Bin (i1, I.Add, I.I32, i, imm32 1L));
  Builder.term b (I.Br h1);
  Builder.switch_to b out;
  Builder.term b (I.Ret (Some s));
  let fn = Builder.finish b in
  let (fn', _) = Licm.run (Stats.create ()) fn in
  Overify_ir.Verify.check_exn ~ssa:true fn';
  check int "two blocks added" (I.num_blocks fn + 2) (I.num_blocks fn');
  check (Alcotest.list bool) "both loops have a preheader" [ true; true ]
    (List.map (fun l -> l.Loop.preheader <> None) (Loop.find fn'));
  let inputs = [ "\000"; "\003"; "\010" ] in
  check (Alcotest.list Alcotest.int64) "same exit codes" (exit_codes fn inputs)
    (exit_codes fn' inputs)

(** Run [Loop_unroll.run] at -OVERIFY on [fn] alone; returns the loops it
    peeled and the exit codes before and after on a few inputs. *)
let unroll_direct fn =
  let stats = Stats.create () in
  let (fn', _) = Loop_unroll.run Costmodel.overify stats fn in
  Overify_ir.Verify.check_exn ~memform:true fn';
  let inputs = [ ""; "\007" ] in
  (stats.Stats.loops_unrolled, exit_codes fn inputs, exit_codes fn' inputs)

(* the outer loop comes first and is peeled first; its copies hold copies
   of the inner loop, so the loops are found again, and the inner loops of
   the two copies and of the residual outer loop are peeled in turn *)
let test_unroll_nested_refind () =
  let src = {|
int main(void) {
  int sum = 0;
  for (int i = 0; i < 2; i++)
    for (int j = 0; j < 3; j++)
      sum += i * 4 + j;
  return sum;
}
|} in
  let fn = main_fn (Frontend.compile_source src) in
  let (peeled, before, after) = unroll_direct fn in
  check int "outer loop, then three inner loops" 4 peeled;
  check (Alcotest.list Alcotest.int64) "18" [ 18L; 18L ] before;
  check (Alcotest.list Alcotest.int64) "same exit codes" before after

(* for (i = 0; i < 3; i++) sum += i; for (j = 0; j < 2; j++) sum += 10;
   where the first header exits straight into the second and stores j = 0:
   once the first loop is peeled, each copy of its header enters the second
   loop too, so the second has four outside predecessors and is not peeled *)
let test_unroll_exit_into_counted_loop () =
  let b = Builder.create ~name:"main" ~params:[] ~ret:I.I32 in
  let h1 = Builder.new_block b and b1 = Builder.new_block b in
  let h2 = Builder.new_block b and b2 = Builder.new_block b in
  let out = Builder.new_block b in
  let ai = Builder.entry_alloca b I.I32 1 in
  let aj = Builder.entry_alloca b I.I32 1 in
  let asum = Builder.entry_alloca b I.I32 1 in
  Builder.store b I.I32 (imm32 0L) ai;
  Builder.store b I.I32 (imm32 0L) asum;
  Builder.term b (I.Br h1);
  let add_to slot v =
    Builder.store b I.I32 (Builder.bin b I.Add I.I32 (Builder.load b I.I32 slot) v) slot
  in
  let counted h body next slot bound =
    Builder.switch_to b h;
    let c = Builder.cmp b I.Slt I.I32 (Builder.load b I.I32 slot) (imm32 bound) in
    Builder.term b (I.Cbr (c, body, next));
    Builder.switch_to b body
  in
  (* the first header stores j = 0 before its test *)
  Builder.switch_to b h1;
  Builder.store b I.I32 (imm32 0L) aj;
  counted h1 b1 h2 ai 3L;
  add_to asum (Builder.load b I.I32 ai);
  add_to ai (imm32 1L);
  Builder.term b (I.Br h1);
  counted h2 b2 out aj 2L;
  add_to asum (imm32 10L);
  add_to aj (imm32 1L);
  Builder.term b (I.Br h2);
  Builder.switch_to b out;
  Builder.term b (I.Ret (Some (Builder.load b I.I32 asum)));
  let (peeled, before, after) = unroll_direct (Builder.finish b) in
  check int "only the first loop" 1 peeled;
  check (Alcotest.list Alcotest.int64) "23" [ 23L; 23L ] before;
  check (Alcotest.list Alcotest.int64) "same exit codes" before after

(* loop A (i from 10, or from 0 on an edge from an unreachable block) comes
   before loop B (j from 20); only B's entries all exit at first.  Deleting
   B sweeps the unreachable block away, which leaves A deletable too *)
let test_loop_delete_exposes_earlier_loop () =
  let b = Builder.create ~name:"main" ~params:[] ~ret:I.I32 in
  let entry = Builder.current b in
  let ha = Builder.new_block b and la = Builder.new_block b in
  let hb = Builder.new_block b and lb = Builder.new_block b in
  let out = Builder.new_block b and dead = Builder.new_block b in
  Builder.term b (I.Br ha);
  Builder.switch_to b ha;
  let i1 = Builder.fresh b in
  let i = phi b I.I32 [ (entry, imm32 10L); (dead, imm32 0L); (la, I.Reg i1) ] in
  Builder.term b (I.Cbr (Builder.cmp b I.Slt I.I32 i (imm32 3L), la, hb));
  Builder.switch_to b la;
  Builder.add_inst b (I.Bin (i1, I.Add, I.I32, i, imm32 1L));
  Builder.term b (I.Br ha);
  Builder.switch_to b hb;
  let j1 = Builder.fresh b in
  let j = phi b I.I32 [ (ha, imm32 20L); (lb, I.Reg j1) ] in
  Builder.term b (I.Cbr (Builder.cmp b I.Slt I.I32 j (imm32 5L), lb, out));
  Builder.switch_to b lb;
  Builder.add_inst b (I.Bin (j1, I.Add, I.I32, j, imm32 1L));
  Builder.term b (I.Br hb);
  Builder.switch_to b out;
  Builder.term b (I.Ret (Some i));
  Builder.switch_to b dead;
  Builder.term b (I.Br ha);
  let fn = Builder.finish b in
  let stats = Stats.create () in
  let (fn', changed) = Loop_delete.run stats fn in
  check bool "changed" true changed;
  check int "B, then A" 2 stats.Stats.loops_deleted;
  check int "no loops left" 0 (List.length (Loop.find fn'));
  check (Alcotest.list Alcotest.int64) "same exit codes" (exit_codes fn [ "" ])
    (exit_codes fn' [ "" ])

(* loop D (j from 10, never runs) sits in loop X, whose only latch is D's
   latch: deleting D sweeps that latch away, so X is no loop any more and
   the loops are found again *)
let test_loop_delete_sweeps_outer_latch () =
  let b = Builder.create ~name:"main" ~params:[] ~ret:I.I32 in
  let entry = Builder.current b in
  let hx = Builder.new_block b and pd = Builder.new_block b in
  let hd = Builder.new_block b and ld = Builder.new_block b in
  let exit_d = Builder.new_block b and out = Builder.new_block b in
  let x = Option.get (Builder.call b I.I32 "__input" [ imm32 0L ]) in
  Builder.term b (I.Br hx);
  Builder.switch_to b hx;
  let j1 = Builder.fresh b in
  let i = phi b I.I32 [ (entry, x); (ld, I.Reg j1) ] in
  Builder.term b (I.Cbr (Builder.cmp b I.Sgt I.I32 i (imm32 0L), pd, out));
  Builder.switch_to b pd;
  Builder.term b (I.Br hd);
  Builder.switch_to b hd;
  let j = phi b I.I32 [ (pd, imm32 10L); (ld, I.Reg j1) ] in
  Builder.term b (I.Cbr (Builder.cmp b I.Slt I.I32 j (imm32 3L), ld, exit_d));
  Builder.switch_to b ld;
  Builder.add_inst b (I.Bin (j1, I.Add, I.I32, j, imm32 1L));
  Builder.term b
    (I.Cbr (Builder.cmp b I.Slt I.I32 (I.Reg j1) (imm32 5L), hd, hx));
  Builder.switch_to b exit_d;
  Builder.term b (I.Br out);
  Builder.switch_to b out;
  let r = phi b I.I32 [ (hx, imm32 1L); (exit_d, imm32 2L) ] in
  Builder.term b (I.Ret (Some r));
  let fn = Builder.finish b in
  check int "two loops, one inside the other" 2 (List.length (Loop.find fn));
  let stats = Stats.create () in
  let (fn', _) = Loop_delete.run stats fn in
  Overify_ir.Verify.check_exn ~ssa:true fn';
  check int "D deleted" 1 stats.Stats.loops_deleted;
  check int "no loops left" 0 (List.length (Loop.find fn'));
  let inputs = [ "\000"; "\005" ] in
  check (Alcotest.list Alcotest.int64) "same exit codes" (exit_codes fn inputs)
    (exit_codes fn' inputs)

(* ------------- runtime checks ------------- *)

let test_runtime_checks_insert_and_catch () =
  let src = {|
int main(void) {
  int a[4];
  int i = __input(0);
  a[i & 7] = 1;        /* can be out of bounds */
  return 0;
}
|} in
  let level = { Costmodel.o0 with Costmodel.passes = [ "runtime_checks" ] } in
  let m0 = Frontend.compile_source src in
  let r = Pipeline.optimize level m0 in
  check bool "checks inserted" true (r.Pipeline.stats.Stats.checks_inserted > 0);
  (* in-bounds run unaffected *)
  let ok = Interp.run r.Pipeline.modul ~input:"\002" in
  check bool "in-bounds clean" true (ok.Interp.trap = None);
  (* out-of-bounds becomes an abort (crash), the paper's uniform failure *)
  let bad = Interp.run r.Pipeline.modul ~input:"\007" in
  check bool "oob aborts" true (bad.Interp.trap = Some Interp.Abort_called)

(* ------------- schedule ------------- *)

let test_schedule_preserves_semantics () =
  let src = {|
int main(void) {
  int a = __input(0);
  int b = a * 3;
  int c = __input(1);
  int d = c * 5;
  int e = b + d;
  return e + a + c;
}
|} in
  same_behaviour ~input:"AB" src

let test_schedule_reduces_stalls () =
  (* scheduling is a -O2/-O3 pass; on dependency-heavy straight-line code it
     should not make execution slower *)
  let src = {|
int main(void) {
  int s = 0;
  int a = __input(0);
  int b = __input(1);
  for (int i = 0; i < 50; i++) {
    int x = a * 3;
    int y = b * 5;
    s += x + y;
  }
  return s & 0xff;
}
|} in
  let with_sched = compile_at Costmodel.o3 src in
  let without =
    compile_at
      { Costmodel.o3 with
        Costmodel.passes =
          List.filter (( <> ) "schedule") Costmodel.o3.Costmodel.passes }
      src
  in
  let c1 = (Interp.run with_sched ~input:"AB").Interp.cycles in
  let c2 = (Interp.run without ~input:"AB").Interp.cycles in
  check bool "scheduling does not hurt" true (c1 <= c2)

(* ------------- annotations ------------- *)

let test_annotations_present () =
  let src = {|
int main(void) {
  int s = 0;
  for (int i = 0; i < __input_size(); i++) s += __input(i);
  return s & 0xff;
}
|} in
  let fn = compile_fn Costmodel.overify src in
  check bool "has metadata" true (fn.I.fmeta <> []);
  check bool "records loops" true (List.mem_assoc "loops" fn.I.fmeta)

(* ------------- whole-pipeline properties ------------- *)

let test_paranoid_profile_on () =
  (* test/dune wraps every test in (setenv OVERIFY_PARANOID 1 ...); if that
     wiring is lost the pipeline silently stops verifying IR after each pass,
     so fail the run loudly *)
  check bool "test profile runs the pipeline in paranoid mode" true
    !Overify_ir.Verify.paranoid

let test_code_growth_direction () =
  (* -OVERIFY may grow code (paper: "even if this increases program size") *)
  let p = Option.get (Programs.find "wc") in
  let compile level =
    Pipeline.optimize level
      (Frontend.compile_sources [ Vclib.for_cost_model level; p.Programs.source ])
  in
  let o0 = static_size (compile Costmodel.o0).Pipeline.modul in
  let ov = static_size (compile Costmodel.overify).Pipeline.modul in
  check bool "sizes positive" true (o0 > 0 && ov > 0)

(* A level's pass list is the one switch: at -O3 and -OVERIFY every pass it
   names is applied to wc, and dropping any one name leaves no application of
   that pass in the stream (dropping [annotate] leaves [main] without
   metadata). *)
let test_pass_list_gates_every_pass () =
  let p = Option.get (Programs.find "wc") in
  List.iter
    (fun (level : Costmodel.t) ->
      let m0 =
        Frontend.compile_sources
          [ Vclib.for_cost_model level; p.Programs.source ]
      in
      let applied passes =
        let prof = Obs.Pass.create () in
        let r =
          Pipeline.optimize ~prof { level with Costmodel.passes } m0
        in
        (r, List.map (fun (a : Obs.Pass.app) -> a.Obs.Pass.pa_pass)
              (Obs.Pass.apps prof))
      in
      let (_, all) = applied level.Costmodel.passes in
      List.iter
        (fun name ->
          let what = Printf.sprintf "%s %s" level.Costmodel.name name in
          check bool (what ^ " applied") true (List.mem name all);
          let (r, apps) =
            applied (List.filter (( <> ) name) level.Costmodel.passes)
          in
          check bool (what ^ " dropped, never applied") false
            (List.mem name apps);
          if name = "annotate" then
            check bool "main keeps no metadata without annotate" true
              ((I.find_func_exn r.Pipeline.modul "main").I.fmeta = []))
        level.Costmodel.passes)
    [ Costmodel.o3; Costmodel.overify ]

(* every corpus program at every level, compiled once for the tests below
   (in paranoid mode, like every compile in this suite), with the stream of
   pass applications collected *)
let corpus_results :
    (Programs.t * (Costmodel.t * Pipeline.result * Obs.Pass.t) list) list =
  List.map
    (fun (p : Programs.t) ->
      ( p,
        List.map
          (fun level ->
            let prof = Obs.Pass.create () in
            let r =
              Pipeline.optimize ~prof level
                (Frontend.compile_sources
                   [ Vclib.for_cost_model level; p.Programs.source ])
            in
            (level, r, prof))
          Costmodel.all ))
    Programs.programs

let test_levels_verify_over_corpus () =
  List.iter
    (fun (_, results) ->
      List.iter
        (fun (_, (r : Pipeline.result), _) ->
          List.iter Overify_ir.Verify.check_exn r.Pipeline.modul.I.funcs)
        results)
    corpus_results

(* The pass-application stream without its times: one line per application,
   in order (pass, function, size before, size after, changed). *)
let apps_to_string prof =
  String.concat ""
    (List.map
       (fun (a : Obs.Pass.app) ->
         Printf.sprintf "%s\t%s\t%d\t%d\t%b\n" a.Obs.Pass.pa_pass a.pa_fn
           a.pa_size_before a.pa_size_after a.pa_changed)
       (Obs.Pass.apps prof))

(* The optimizer's output is pinned: per corpus program and level, the MD5
   of the printed IR, of the [Stats] line and of the pass-application stream
   must match test/compile_digests.tsv.  The stream column sees a no-op
   application appear or vanish, which the IR cannot.  On a mismatch the
   fresh table is written next to the test executable; recording an
   intended change is one copy. *)
let digests_header = "# program\tlevel\tir_md5\tstats_md5\tpasses_md5"

let digest_rows () =
  List.concat_map
    (fun ((p : Programs.t), results) ->
      List.map
        (fun (level, (r : Pipeline.result), prof) ->
          let md5 s = Digest.to_hex (Digest.string s) in
          String.concat "\t"
            [
              p.Programs.name;
              level.Costmodel.name;
              md5 (Overify_ir.Printer.modul_to_string r.Pipeline.modul);
              md5 (Format.asprintf "%a" Stats.pp r.Pipeline.stats);
              md5 (apps_to_string prof);
            ])
        results)
    corpus_results

let test_compile_digests () =
  Pinned.check ~name:"compile_digests" ~header:digests_header ~keys:2
    ~what:"optimizer output" (digest_rows ())

(* ------------- the big differential property ------------- *)

let text_gen =
  QCheck2.Gen.(
    let interesting =
      oneofl
        [ 'a'; 'b'; 'z'; 'A'; 'Z'; ' '; '\t'; '\n'; '/'; ':'; ';'; '%'; '\\';
          '0'; '9'; '#'; '='; '<'; '-'; '+'; '.'; '\000'; '\255' ]
    in
    let any = map Char.chr (int_range 0 255) in
    string_size ~gen:(frequency [ (4, interesting); (1, any) ]) (int_range 0 12))

let differential_tests =
  List.map
    (fun ((p : Programs.t), results) ->
      let compiled =
        List.map
          (fun (level, (r : Pipeline.result), _) ->
            (level.Costmodel.name, r.Pipeline.modul))
          results
      in
      QCheck_alcotest.to_alcotest
        (QCheck2.Test.make
           ~name:(Printf.sprintf "%s agrees across levels" p.Programs.name)
           ~count:25 text_gen (fun input ->
             match compiled with
             | [] -> true
             | (_, m0) :: rest ->
                 let r0 = Interp.run m0 ~input in
                 List.for_all
                   (fun (name, m) ->
                     let r = Interp.run m ~input in
                     let ok =
                       r.Interp.exit_code = r0.Interp.exit_code
                       && r.Interp.output = r0.Interp.output
                       && (r.Interp.trap = None) = (r0.Interp.trap = None)
                     in
                     if not ok then
                       QCheck2.Test.fail_reportf
                         "%s disagrees with -O0 on %S: exit %Ld vs %Ld, \
                          output %S vs %S, trap %s vs %s"
                         name input r0.Interp.exit_code r.Interp.exit_code
                         r0.Interp.output r.Interp.output
                         (match r0.Interp.trap with
                         | None -> "-"
                         | Some t -> Interp.string_of_trap t)
                         (match r.Interp.trap with
                         | None -> "-"
                         | Some t -> Interp.string_of_trap t)
                     else ok)
                   rest)))
    corpus_results

(* ------------- Stats (the Table 3 counters) ------------- *)

let stats_fields (s : Stats.t) =
  [
    ("functions_inlined", s.Stats.functions_inlined);
    ("loops_unswitched", s.Stats.loops_unswitched);
    ("loops_unrolled", s.Stats.loops_unrolled);
    ("loops_deleted", s.Stats.loops_deleted);
    ("branches_converted", s.Stats.branches_converted);
    ("jumps_threaded", s.Stats.jumps_threaded);
    ("allocas_promoted", s.Stats.allocas_promoted);
    ("aggregates_split", s.Stats.aggregates_split);
    ("insts_folded", s.Stats.insts_folded);
    ("insts_hoisted", s.Stats.insts_hoisted);
    ("checks_inserted", s.Stats.checks_inserted);
    ("annotations_added", s.Stats.annotations_added);
  ]

let test_stats_create_zero () =
  List.iter
    (fun (name, v) -> check int (name ^ " starts at 0") 0 v)
    (stats_fields (Stats.create ()))

let test_stats_add () =
  (* distinct per-field values so a transposed field in [add] shows up *)
  let a = Stats.create () and b = Stats.create () in
  let setters =
    [
      (fun (s : Stats.t) v -> s.Stats.functions_inlined <- v);
      (fun s v -> s.Stats.loops_unswitched <- v);
      (fun s v -> s.Stats.loops_unrolled <- v);
      (fun s v -> s.Stats.loops_deleted <- v);
      (fun s v -> s.Stats.branches_converted <- v);
      (fun s v -> s.Stats.jumps_threaded <- v);
      (fun s v -> s.Stats.allocas_promoted <- v);
      (fun s v -> s.Stats.aggregates_split <- v);
      (fun s v -> s.Stats.insts_folded <- v);
      (fun s v -> s.Stats.insts_hoisted <- v);
      (fun s v -> s.Stats.checks_inserted <- v);
      (fun s v -> s.Stats.annotations_added <- v);
    ]
  in
  List.iteri (fun i set -> set a (i + 1)) setters;
  List.iteri (fun i set -> set b (100 * (i + 1))) setters;
  let s = Stats.add a b in
  List.iteri
    (fun i (name, v) -> check int (name ^ " adds field-wise") (101 * (i + 1)) v)
    (stats_fields s);
  (* add is non-destructive *)
  check int "left operand untouched" 1 a.Stats.functions_inlined;
  check int "right operand untouched" 100 b.Stats.functions_inlined

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_stats_pp () =
  let s = Stats.create () in
  s.Stats.functions_inlined <- 3;
  s.Stats.checks_inserted <- 42;
  let str = Format.asprintf "%a" Stats.pp s in
  check bool "pp shows inlined=3" true (contains str "inlined=3");
  check bool "pp shows checks=42" true (contains str "checks=42")

(* the pipeline actually populates the counters: wc at -OVERIFY inlines,
   promotes allocas and inserts checks/annotations *)
let test_stats_populated_by_pipeline () =
  let p = Option.get (Programs.find "wc") in
  let r =
    Pipeline.optimize Costmodel.overify
      (Frontend.compile_sources
         [ Vclib.for_cost_model Costmodel.overify; p.Programs.source ])
  in
  let s = r.Pipeline.stats in
  check bool "inlined something" true (s.Stats.functions_inlined > 0);
  check bool "promoted allocas" true (s.Stats.allocas_promoted > 0);
  check bool "added annotations" true (s.Stats.annotations_added > 0)

let () =
  Alcotest.run "opt"
    [
      ( "constfold",
        [
          Alcotest.test_case "folds" `Quick test_constfold_folds;
          Alcotest.test_case "preserves div-by-zero" `Quick
            test_constfold_preserves_div_by_zero;
          Alcotest.test_case "strength reduction" `Quick test_strength_reduction;
        ] );
      ( "mem2reg",
        [
          Alcotest.test_case "promotes" `Quick test_mem2reg_promotes;
          Alcotest.test_case "do-while phi (regression)" `Quick
            test_mem2reg_do_while;
          Alcotest.test_case "respects escapes" `Quick
            test_mem2reg_respects_escapes;
        ] );
      ("sroa", [ Alcotest.test_case "splits arrays" `Quick test_sroa_splits ]);
      ("dce", [ Alcotest.test_case "removes dead code" `Quick test_dce_removes_dead_code ]);
      ( "if-conversion",
        [
          Alcotest.test_case "removes branches" `Quick
            test_if_convert_removes_branches;
          Alcotest.test_case "flattens short-circuit DAG" `Quick
            test_if_convert_flattens_shortcircuit;
          Alcotest.test_case "keeps side effects guarded" `Quick
            test_if_convert_keeps_side_effects_guarded;
          Alcotest.test_case "respects CPU budget" `Quick
            test_if_convert_respects_cpu_budget;
          Alcotest.test_case "IR: safe arm converts" `Quick
            test_if_convert_ir_safe_arm_converts;
          Alcotest.test_case "IR: division arm blocked" `Quick
            test_if_convert_ir_division_arm_blocked;
          Alcotest.test_case "IR: load arm blocked" `Quick
            test_if_convert_ir_load_arm_blocked;
        ] );
      ( "unswitch",
        [
          Alcotest.test_case "fires and preserves" `Quick
            test_unswitch_fires_and_preserves;
          Alcotest.test_case "IR: nested invariant condition" `Quick
            test_unswitch_ir_nested_invariant;
          Alcotest.test_case "IR: loop-written condition blocked" `Quick
            test_unswitch_ir_loop_written_condition_blocked;
          Alcotest.test_case "IR: call condition blocked" `Quick
            test_unswitch_ir_call_condition_blocked;
        ] );
      ( "unroll",
        [
          Alcotest.test_case "constant loop" `Quick test_unroll_constant_loop;
          Alcotest.test_case "trip limit" `Quick test_unroll_respects_trip_limit;
          Alcotest.test_case "downward loop" `Quick test_unroll_downward_loop;
          Alcotest.test_case "outer peel finds loops again" `Quick
            test_unroll_nested_refind;
          Alcotest.test_case "IR: exit into a counted loop" `Quick
            test_unroll_exit_into_counted_loop;
        ] );
      ( "inline",
        [
          Alcotest.test_case "specializes" `Quick test_inline_specializes;
          Alcotest.test_case "skips recursion" `Quick test_inline_skips_recursion;
          Alcotest.test_case "threshold" `Quick test_inline_threshold;
        ] );
      ( "jump threading",
        [
          Alcotest.test_case "correlated conditions" `Quick
            test_jump_threading_same_condition;
          Alcotest.test_case "IR: stranded blocks dropped" `Quick
            test_jump_threading_drops_stranded_blocks;
        ] );
      ( "loop deletion",
        [
          Alcotest.test_case "zero-trip loop removed" `Quick
            test_loop_delete_zero_trip;
          Alcotest.test_case "live loops kept" `Quick
            test_loop_delete_keeps_live_loops;
          Alcotest.test_case "counts every deleted loop" `Quick
            test_loop_delete_counts_loops;
          Alcotest.test_case "IR: exposes an earlier loop" `Quick
            test_loop_delete_exposes_earlier_loop;
          Alcotest.test_case "IR: sweeps the outer's latch" `Quick
            test_loop_delete_sweeps_outer_latch;
        ] );
      ( "licm",
        [
          Alcotest.test_case "IR: hoists into a preheader" `Quick
            test_licm_hoists_into_new_preheader;
          Alcotest.test_case "IR: no preheader for entry" `Quick
            test_licm_entry_header;
          Alcotest.test_case "IR: outer and inner get one" `Quick
            test_licm_nested_preheaders;
        ] );
      ( "runtime checks",
        [ Alcotest.test_case "insert and catch" `Quick
            test_runtime_checks_insert_and_catch ] );
      ( "schedule",
        [
          Alcotest.test_case "preserves semantics" `Quick
            test_schedule_preserves_semantics;
          Alcotest.test_case "reduces stalls" `Quick test_schedule_reduces_stalls;
        ] );
      ( "annotations",
        [ Alcotest.test_case "present" `Quick test_annotations_present ] );
      ( "pipeline",
        [
          Alcotest.test_case "paranoid profile on" `Quick test_paranoid_profile_on;
          Alcotest.test_case "pass list gates every pass" `Quick
            test_pass_list_gates_every_pass;
          Alcotest.test_case "code size sanity" `Quick test_code_growth_direction;
          Alcotest.test_case "IR verifies over corpus at all levels" `Slow
            test_levels_verify_over_corpus;
          Alcotest.test_case "output pinned by compile_digests.tsv" `Quick
            test_compile_digests;
        ] );
      ( "stats",
        [
          Alcotest.test_case "create is all zeros" `Quick test_stats_create_zero;
          Alcotest.test_case "add is field-wise" `Quick test_stats_add;
          Alcotest.test_case "pp names every counter" `Quick test_stats_pp;
          Alcotest.test_case "pipeline populates counters" `Quick
            test_stats_populated_by_pipeline;
        ] );
      ("differential (qcheck)", differential_tests);
    ]
