(** Symbolic-execution engine tests: path counting, bug finding with
    witness replay, symbolic memory, and the soundness property that every
    reported path replays concretely to its predicted exit code. *)

module I = Overify_ir.Ir
module Frontend = Overify_minic.Frontend
module Interp = Overify_interp.Interp
module Engine = Overify_symex.Engine
module Costmodel = Overify_opt.Costmodel
module Pipeline = Overify_opt.Pipeline

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let compile ?(level = Costmodel.o0) src =
  (Pipeline.optimize level (Frontend.compile_source src)).Pipeline.modul

let verify ?(level = Costmodel.o0) ?(n = 2) ?(timeout = 20.0) src =
  Engine.run
    ~config:{ Engine.default_config with Engine.input_size = n; timeout }
    (compile ~level src)

(* ------------- path counting ------------- *)

let test_single_path () =
  let r = verify "int main(void) { return 42; }" in
  check int "one path" 1 r.Engine.paths;
  check bool "complete" true r.Engine.complete

let test_two_way_branch () =
  let r = verify "int main(void) { return __input(0) > 10 ? 1 : 0; }" in
  check int "two paths" 2 r.Engine.paths

let test_infeasible_pruned () =
  (* the second test is implied by the first: no extra fork *)
  let src = {|
int main(void) {
  int c = __input(0);
  if (c > 100) {
    if (c > 50) return 1;   /* always true here */
    return 2;               /* infeasible */
  }
  return 0;
}
|} in
  let r = verify src in
  check int "two paths, not three" 2 r.Engine.paths

let test_loop_paths_linear_in_input () =
  let src = {|
int main(void) {
  int n = 0;
  for (int i = 0; i < __input_size(); i++) {
    if (__input(i) == 0) break;
    n++;
  }
  return n;
}
|} in
  let r = verify ~n:3 src in
  (* paths: first zero byte at position 0..2, or none = 4 *)
  check int "n+1 paths" 4 r.Engine.paths

let test_exponential_paths () =
  let src = {|
int main(void) {
  int acc = 0;
  for (int i = 0; i < __input_size(); i++)
    if (__input(i) & 1) acc++;
  return acc;
}
|} in
  check int "2^3 paths" 8 (verify ~n:3 src).Engine.paths

let test_symbolic_size_independent_code () =
  (* a branch on nothing symbolic costs no fork *)
  let src = "int main(void) { int x = 5; return x > 2 ? 1 : 0; }" in
  let r = verify ~n:4 src in
  check int "one path" 1 r.Engine.paths;
  check int "no queries" 0 r.Engine.queries

(* ------------- budgets ------------- *)

let test_path_budget () =
  let src = {|
int main(void) {
  int acc = 0;
  for (int i = 0; i < __input_size(); i++)
    if (__input(i) & 1) acc++;
  return acc;
}
|} in
  let r =
    Engine.run
      ~config:{ Engine.default_config with Engine.input_size = 6; max_paths = 5 }
      (compile src)
  in
  check bool "incomplete" false r.Engine.complete;
  check bool "at most a few paths over budget" true (r.Engine.paths <= 6)

(* ------------- bug finding ------------- *)

let bug_kinds (r : Engine.result) =
  List.map (fun (b : Engine.bug) -> b.Engine.kind) r.Engine.bugs

let test_finds_oob () =
  let src = {|
int main(void) {
  int a[4];
  a[__input(0) & 7] = 1;
  return 0;
}
|} in
  let r = verify src in
  check bool "oob found" true
    (List.exists
       (fun k ->
         String.length k >= 5 && String.sub k 0 5 = "store")
       (bug_kinds r));
  (* the witness must replay to a trap in the interpreter *)
  List.iter
    (fun (b : Engine.bug) ->
      let rr = Interp.run (compile src) ~input:b.Engine.input in
      check bool "witness replays to a trap" true (rr.Interp.trap <> None))
    r.Engine.bugs

let test_finds_div_by_zero () =
  let src = {|
int main(void) {
  int d = __input(0);
  return 100 / d;
}
|} in
  let r = verify src in
  check bool "division bug found" true
    (List.mem "division by zero" (bug_kinds r));
  List.iter
    (fun (b : Engine.bug) ->
      let rr = Interp.run (compile src) ~input:b.Engine.input in
      check bool "witness traps" true (rr.Interp.trap = Some Interp.Div_by_zero))
    r.Engine.bugs

let test_finds_assert_failure () =
  let src = {|
int main(void) {
  __assert(__input(0) != 'Q');
  return 0;
}
|} in
  let r = verify src in
  check bool "assert bug" true (List.mem "assertion failure" (bug_kinds r));
  match r.Engine.bugs with
  | b :: _ -> check Alcotest.char "witness is Q" 'Q' b.Engine.input.[0]
  | [] -> Alcotest.fail "no bug"

let test_no_false_positives () =
  let src = {|
int main(void) {
  int a[4];
  a[__input(0) & 3] = 1;       /* always in bounds */
  int d = (__input(1) & 7) + 1; /* never zero */
  return 8 / d;
}
|} in
  let r = verify src in
  check int "no bugs" 0 (List.length r.Engine.bugs);
  check bool "complete" true r.Engine.complete

let test_abort_reached_conditionally () =
  let src = {|
int main(void) {
  if (__input(0) == 'x' && __input(1) == 'y') __abort();
  return 0;
}
|} in
  let r = verify src in
  check bool "abort found" true (List.mem "abort called" (bug_kinds r));
  match List.find_opt (fun (b : Engine.bug) -> b.Engine.kind = "abort called") r.Engine.bugs with
  | Some b -> check Alcotest.string "witness xy" "xy" b.Engine.input
  | None -> Alcotest.fail "no abort bug"

(* ------------- symbolic memory ------------- *)

let test_symbolic_index_read () =
  let src = {|
int table[4] = {10, 20, 30, 40};
int main(void) {
  return table[__input(0) & 3];
}
|} in
  let r = verify src in
  check int "single path (no fork on select)" 1 r.Engine.paths;
  check bool "complete" true r.Engine.complete;
  (* replay each witness *)
  List.iter
    (fun (input, code) ->
      let rr = Interp.run (compile src) ~input in
      check Alcotest.int64 "witness exit matches" code rr.Interp.exit_code)
    r.Engine.exit_codes

let test_symbolic_index_write () =
  let src = {|
int main(void) {
  int a[4] = {0, 0, 0, 0};
  a[__input(0) & 3] = 7;
  int sum = 0;
  for (int i = 0; i < 4; i++) sum += a[i];
  return sum;
}
|} in
  let r = verify src in
  check bool "complete" true r.Engine.complete;
  List.iter
    (fun ((_ : string), code) -> check Alcotest.int64 "sum always 7" 7L code)
    r.Engine.exit_codes

let test_pointer_in_memory () =
  (* pointers stored to and loaded from memory survive symbolically *)
  let src = {|
int main(void) {
  int x = 3;
  int y = 4;
  int *sel[2];
  sel[0] = &x;
  sel[1] = &y;
  return *sel[__input(0) & 1];
}
|} in
  let r = verify src in
  check bool "complete" true r.Engine.complete;
  List.iter
    (fun (input, code) ->
      let rr = Interp.run (compile src) ~input in
      check Alcotest.int64 "replay matches" code rr.Interp.exit_code)
    r.Engine.exit_codes

(* ------------- symbolic memory unit tests ------------- *)

module Memory = Overify_symex.Memory
module Sval = Overify_symex.Sval
module Bv = Overify_solver.Bv

let at obj off = Sval.Ptr (obj, off)

let test_memory_concrete_rw () =
  let (m, obj) = Memory.alloc Memory.empty ~size:8 in
  let v = Sval.Con (32, 0xAABBCCDDL) in
  (match Memory.write m (at obj 2) ~width:4 ~v with
  | Ok m -> (
      match Memory.read m (at obj 2) ~width:4 with
      | Ok t -> check bool "round trip, concrete" true (t = v)
      | Error _ -> Alcotest.fail "read failed")
  | Error _ -> Alcotest.fail "write failed");
  (* little-endian byte order *)
  match Memory.write m (at obj 0) ~width:4 ~v with
  | Ok m -> (
      match Memory.read m (at obj 0) ~width:1 with
      | Ok b -> check bool "LSB first" true (b = Sval.Con (8, 0xDDL))
      | Error _ -> Alcotest.fail "byte read failed")
  | Error _ -> Alcotest.fail "write failed"

let test_memory_bounds () =
  let (m, obj) = Memory.alloc Memory.empty ~size:4 in
  (match Memory.read m (at obj 1) ~width:4 with
  | Error (Memory.Out_of_bounds _) -> ()
  | _ -> Alcotest.fail "straddling read must fail");
  match Memory.write m (at obj (-1)) ~width:1 ~v:(Sval.Con (8, 0L)) with
  | Error (Memory.Out_of_bounds _) -> ()
  | _ -> Alcotest.fail "negative offset must fail"

let test_memory_cow_isolation () =
  (* a write in a forked state must not leak into the original *)
  let (m0, obj) = Memory.alloc Memory.empty ~size:1 in
  let m1 =
    match Memory.write m0 (at obj 0) ~width:1 ~v:(Sval.Con (8, 42L)) with
    | Ok m -> m
    | Error _ -> Alcotest.fail "write failed"
  in
  (match Memory.read m0 (at obj 0) ~width:1 with
  | Ok t -> check bool "original unchanged" true (t = Sval.Con (8, 0L))
  | Error _ -> Alcotest.fail "read failed");
  match Memory.read m1 (at obj 0) ~width:1 with
  | Ok t -> check bool "copy updated" true (t = Sval.Con (8, 42L))
  | Error _ -> Alcotest.fail "read failed"

let test_memory_symbolic_ite () =
  (* reading at a symbolic offset builds an ITE that evaluates correctly at
     every concrete position *)
  let (m, obj) = Memory.alloc_bytes Memory.empty "\x10\x20\x30\x40" ~size:4 in
  let off = Bv.zext 64 (Bv.var 8 4242) in
  match Memory.read m (Sval.Sym_ptr (obj, off)) ~width:1 with
  | Ok (Sval.Sym t) ->
      List.iter
        (fun (pos, expect) ->
          let v = Bv.eval (fun _ -> Int64.of_int pos) t in
          check Alcotest.int64 (Printf.sprintf "byte %d" pos) expect v)
        [ (0, 0x10L); (1, 0x20L); (2, 0x30L); (3, 0x40L) ]
  | Ok _ -> Alcotest.fail "symbolic read gave a concrete value"
  | Error _ -> Alcotest.fail "symbolic read failed"

(* a value stored partly symbolic reads back as a term over its bytes, and
   a byte of it that folds to a constant reads back concrete *)
let test_memory_mixed_bytes () =
  let (m, obj) = Memory.alloc Memory.empty ~size:4 in
  let x = Bv.var 8 4243 in
  let v = Sval.of_term (Bv.zext 32 x) in
  match Memory.write m (at obj 0) ~width:4 ~v with
  | Error _ -> Alcotest.fail "write failed"
  | Ok m -> (
      (match Memory.read m (at obj 1) ~width:1 with
      | Ok b -> check bool "high byte concrete" true (b = Sval.Con (8, 0L))
      | Error _ -> Alcotest.fail "byte read failed");
      match Memory.read m (at obj 0) ~width:4 with
      | Ok (Sval.Sym t) ->
          check Alcotest.int64 "value at x = 200" 200L
            (Bv.eval (fun _ -> 200L) t)
      | Ok _ -> Alcotest.fail "symbolic bytes read back concrete"
      | Error _ -> Alcotest.fail "read failed")

let test_memory_kill () =
  let (m, obj) = Memory.alloc Memory.empty ~size:4 in
  let m = Memory.kill m obj in
  match Memory.read m (at obj 0) ~width:1 with
  | Error Memory.Dead_object -> ()
  | _ -> Alcotest.fail "dead object must not be readable"

(* ------------- soundness over exit codes ------------- *)

(** Every explored path's witness input must produce exactly the predicted
    exit code when run concretely — at every optimization level. *)
let test_path_witness_soundness () =
  let src = {|
int classify(int c) {
  if (c >= '0' && c <= '9') return 1;
  if (c >= 'a' && c <= 'z') return 2;
  if (c == ' ') return 3;
  return 0;
}
int main(void) {
  int a = classify(__input(0));
  int b = classify(__input(1));
  return a * 4 + b;
}
|} in
  List.iter
    (fun level ->
      let m = compile ~level src in
      let r =
        Engine.run
          ~config:{ Engine.default_config with Engine.input_size = 2 }
          m
      in
      check bool
        (Printf.sprintf "%s complete" level.Costmodel.name)
        true r.Engine.complete;
      List.iter
        (fun (input, code) ->
          let rr = Interp.run m ~input in
          if rr.Interp.exit_code <> code then
            Alcotest.failf "%s: witness %S predicted %Ld got %Ld"
              level.Costmodel.name input code rr.Interp.exit_code)
        r.Engine.exit_codes)
    Costmodel.all

(* paths partition behaviours: exit codes seen concretely on random inputs
   must all appear among the symbolic paths' exit codes *)
let test_paths_cover_concrete_behaviours () =
  let src = {|
int main(void) {
  int c = __input(0);
  if (c == 0) return 0;
  if (c & 1) return 1;
  if (c < 100) return 2;
  return 3;
}
|} in
  let m = compile src in
  let r =
    Engine.run ~config:{ Engine.default_config with Engine.input_size = 1 } m
  in
  check bool "complete" true r.Engine.complete;
  let symbolic_codes =
    List.sort_uniq compare (List.map snd r.Engine.exit_codes)
  in
  for c = 0 to 255 do
    let rr = Interp.run m ~input:(String.make 1 (Char.chr c)) in
    if not (List.mem rr.Interp.exit_code symbolic_codes) then
      Alcotest.failf "behaviour %Ld (input %d) not covered" rr.Interp.exit_code c
  done

(* ------------- calls and frames ------------- *)

let test_recursive_symbolic () =
  let src = {|
int depth(int n) { if (n <= 0) return 0; return 1 + depth(n - 1); }
int main(void) { return depth(__input(0) & 3); }
|} in
  let r = verify ~n:1 src in
  check int "4 paths" 4 r.Engine.paths;
  check bool "complete" true r.Engine.complete

let test_block_coverage () =
  (* exhaustive exploration covers every reachable block; an unreachable
     arm stays uncovered *)
  let src = {|
int main(void) {
  int c = __input(0);
  if (c > 300) return 1;   /* infeasible for a byte: block never covered */
  if (c & 1) return 2;
  return 3;
}
|} in
  let r = verify src in
  check bool "complete" true r.Engine.complete;
  check bool "covered most blocks" true
    (r.Engine.blocks_covered >= r.Engine.blocks_total - 2);
  check bool "the infeasible arm stays uncovered" true
    (r.Engine.blocks_covered < r.Engine.blocks_total)

let test_frame_isolation () =
  (* locals of different frames must not interfere after forking *)
  let src = {|
int probe(int c) {
  int local = 1;
  if (c > 10) local = 2;
  return local;
}
int main(void) { return probe(__input(0)) + probe(__input(1)) * 4; }
|} in
  let r = verify src in
  check int "4 paths" 4 r.Engine.paths;
  List.iter
    (fun (input, code) ->
      let rr = Interp.run (compile src) ~input in
      check Alcotest.int64 "replay" code rr.Interp.exit_code)
    r.Engine.exit_codes

(* ------------- verdicts pinned ------------- *)

module Programs = Overify_corpus.Programs
module Vclib = Overify_vclib.Vclib

(* Each corpus program at -O0, -O3 and -OVERIFY is one row of
   test/verdict_digests.tsv: whether the run completed, and the MD5 of its
   [--json --deterministic] line followed by its sorted (witness, exit
   code) pairs.  n=2, except cksum and factor at n=1; cksum -O0 ends on
   the wall clock, so it is left out.  The config is built from
   [Engine.default_config], so the @ci reruns with reuse off and with
   summaries on check the same table. *)
let verdict_digests_header = "# program\tlevel\tcomplete\tverdict_md5"

let test_verdict_digests () =
  let rows =
    List.concat_map
      (fun (p : Programs.t) ->
        let name = p.Programs.name in
        let n = if name = "cksum" || name = "factor" then 1 else 2 in
        List.filter_map
          (fun (level : Costmodel.t) ->
            if name = "cksum" && level == Costmodel.o0 then None
            else begin
              let m =
                (Pipeline.optimize level
                   (Vclib.frontend level p.Programs.source))
                  .Pipeline.modul
              in
              let r =
                Engine.run
                  ~config:{ Engine.default_config with Engine.input_size = n }
                  m
              in
              let exits =
                List.sort compare r.Engine.exit_codes
                |> List.map (fun (w, c) -> Printf.sprintf "%S %Ld\n" w c)
              in
              let doc =
                String.concat ""
                  (Engine.result_to_json ~deterministic:true r :: "\n" :: exits)
              in
              Some
                (Printf.sprintf "%s\t%s\t%b\t%s" name level.Costmodel.name
                   r.Engine.complete
                   (Digest.to_hex (Digest.string doc)))
            end)
          [ Costmodel.o0; Costmodel.o3; Costmodel.overify ])
      Programs.programs
  in
  Pinned.check ~name:"verdict_digests" ~header:verdict_digests_header ~keys:2
    ~what:"verdicts" rows

let () =
  Alcotest.run "symex"
    [
      ( "verdicts",
        [
          Alcotest.test_case "pinned by verdict_digests.tsv" `Quick
            test_verdict_digests;
        ] );
      ( "paths",
        [
          Alcotest.test_case "single" `Quick test_single_path;
          Alcotest.test_case "two-way" `Quick test_two_way_branch;
          Alcotest.test_case "infeasible pruned" `Quick test_infeasible_pruned;
          Alcotest.test_case "linear loop" `Quick test_loop_paths_linear_in_input;
          Alcotest.test_case "exponential" `Quick test_exponential_paths;
          Alcotest.test_case "concrete branch free" `Quick
            test_symbolic_size_independent_code;
        ] );
      ("budgets", [ Alcotest.test_case "path budget" `Quick test_path_budget ]);
      ( "bugs",
        [
          Alcotest.test_case "out of bounds" `Quick test_finds_oob;
          Alcotest.test_case "division by zero" `Quick test_finds_div_by_zero;
          Alcotest.test_case "assert failure" `Quick test_finds_assert_failure;
          Alcotest.test_case "no false positives" `Quick test_no_false_positives;
          Alcotest.test_case "conditional abort" `Quick
            test_abort_reached_conditionally;
        ] );
      ( "memory",
        [
          Alcotest.test_case "symbolic read" `Quick test_symbolic_index_read;
          Alcotest.test_case "symbolic write" `Quick test_symbolic_index_write;
          Alcotest.test_case "pointers in memory" `Quick test_pointer_in_memory;
        ] );
      ( "soundness",
        [
          Alcotest.test_case "witness replay at all levels" `Quick
            test_path_witness_soundness;
          Alcotest.test_case "paths cover behaviours" `Quick
            test_paths_cover_concrete_behaviours;
        ] );
      ( "frames",
        [
          Alcotest.test_case "recursion" `Quick test_recursive_symbolic;
          Alcotest.test_case "frame isolation" `Quick test_frame_isolation;
        ] );
      ( "coverage",
        [ Alcotest.test_case "block coverage" `Quick test_block_coverage ] );
      ( "memory unit",
        [
          Alcotest.test_case "concrete round trip" `Quick test_memory_concrete_rw;
          Alcotest.test_case "bounds" `Quick test_memory_bounds;
          Alcotest.test_case "copy-on-write isolation" `Quick
            test_memory_cow_isolation;
          Alcotest.test_case "symbolic ITE read" `Quick test_memory_symbolic_ite;
          Alcotest.test_case "mixed bytes" `Quick test_memory_mixed_bytes;
          Alcotest.test_case "kill" `Quick test_memory_kill;
        ] );
    ]
