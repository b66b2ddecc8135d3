(** Unit tests for the IR core: constants, evaluation, CFG, dominators,
    loops, call graph, builder and the structural verifier. *)

open Overify_ir
module I = Ir

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let i64 = Alcotest.int64

(* ------------- constants and evaluation ------------- *)

let test_norm () =
  check i64 "i8 norm" 0x34L (I.norm I.I8 0x1234L);
  check i64 "i1 norm" 1L (I.norm I.I1 3L);
  check i64 "i32 norm" 0xFFFFFFFFL (I.norm I.I32 (-1L));
  check i64 "i64 norm" (-1L) (I.norm I.I64 (-1L))

let test_signed_of () =
  check i64 "i8 -1" (-1L) (I.signed_of I.I8 0xFFL);
  check i64 "i8 127" 127L (I.signed_of I.I8 0x7FL);
  check i64 "i8 -128" (-128L) (I.signed_of I.I8 0x80L);
  check i64 "i16 -1" (-1L) (I.signed_of I.I16 0xFFFFL);
  check i64 "i32 min" (Int64.of_int32 Int32.min_int)
    (I.signed_of I.I32 0x80000000L)

(* the evaluators take a bit width: the IR's types pass 1/8/16/32/64, and
   Bv's terms reach every width from 1 to 64 through concat/extract, so
   24 and 40 stand for the widths only the solver's terms have *)
let norm bits v = Int64.logand v (I.mask bits)

let test_eval_binop () =
  let eval op bits a b = I.eval_binop op bits (norm bits a) (norm bits b) in
  let chk name want got = check (Alcotest.option i64) name want got in
  chk "add wrap i8" (Some 0L) (eval I.Add 8 255L 1L);
  chk "sub wrap i8" (Some 255L) (eval I.Sub 8 0L 1L);
  chk "mul i8" (Some 0xE8L) (eval I.Mul 8 100L 10L);
  chk "sdiv -7/2" (Some (I.norm I.I32 (-3L))) (eval I.Sdiv 32 (-7L) 2L);
  chk "srem -7%2" (Some (I.norm I.I32 (-1L))) (eval I.Srem 32 (-7L) 2L);
  chk "udiv 0xFF/2" (Some 127L) (eval I.Udiv 8 255L 2L);
  chk "div by zero" None (eval I.Sdiv 32 5L 0L);
  chk "urem by zero" None (eval I.Urem 32 5L 0L);
  chk "shl" (Some 0x80L) (eval I.Shl 8 1L 7L);
  chk "shl masks amount" (Some 1L) (eval I.Shl 8 1L 8L);
  chk "lshr i8" (Some 0x7FL) (eval I.Lshr 8 255L 1L);
  chk "ashr i8 neg" (Some 0xFFL) (eval I.Ashr 8 255L 1L);
  chk "xor" (Some 0L) (eval I.Xor 32 42L 42L);
  List.iter
    (fun bits ->
      let name s = Printf.sprintf "%s @%d" s bits in
      let min_s = Int64.shift_left 1L (bits - 1) in
      chk (name "ashr keeps the sign bit")
        (Some (norm bits (Int64.shift_right (Int64.neg min_s) 4)))
        (eval I.Ashr bits min_s 4L);
      chk (name "lshr does not") (Some (Int64.shift_right_logical min_s 4))
        (eval I.Lshr bits min_s 4L);
      chk (name "sdiv -7/2") (Some (norm bits (-3L)))
        (eval I.Sdiv bits (-7L) 2L);
      chk (name "sdiv min/-1 wraps") (Some min_s)
        (eval I.Sdiv bits min_s (-1L));
      chk (name "srem -7%2") (Some (norm bits (-1L)))
        (eval I.Srem bits (-7L) 2L);
      chk (name "srem 7%-2") (Some 1L) (eval I.Srem bits 7L (-2L));
      chk (name "sdiv by zero") None (eval I.Sdiv bits 1L 0L);
      chk (name "shl by width") (Some 1L)
        (eval I.Shl bits 1L (Int64.of_int bits));
      chk (name "shl by width+1") (Some 2L)
        (eval I.Shl bits 1L (Int64.of_int (bits + 1)));
      chk (name "shl drops the top bit") (Some 0L) (eval I.Shl bits min_s 1L);
      chk (name "add wraps") (Some 0L) (eval I.Add bits (-1L) 1L))
    [ 24; 40 ]

let test_eval_cmp () =
  check bool "slt signed" true (I.eval_cmp I.Slt 8 (norm 8 (-1L)) 1L);
  check bool "ult unsigned" false (I.eval_cmp I.Ult 8 (norm 8 (-1L)) 1L);
  check bool "sge" true (I.eval_cmp I.Sge 32 5L 5L);
  check bool "ne" false (I.eval_cmp I.Ne 32 5L 5L);
  check bool "ugt 64" true (I.eval_cmp I.Ugt 64 (norm 64 (-1L)) 1L);
  List.iter
    (fun bits ->
      let name s = Printf.sprintf "%s @%d" s bits in
      let m1 = norm bits (-1L) and min_s = Int64.shift_left 1L (bits - 1) in
      check bool (name "slt -1 < 1") true (I.eval_cmp I.Slt bits m1 1L);
      check bool (name "ult -1 < 1") false (I.eval_cmp I.Ult bits m1 1L);
      check bool (name "sgt 1 > -1") true (I.eval_cmp I.Sgt bits 1L m1);
      check bool (name "slt min < max") true
        (I.eval_cmp I.Slt bits min_s (Int64.sub min_s 1L));
      check bool (name "ugt min > max") true
        (I.eval_cmp I.Ugt bits min_s (Int64.sub min_s 1L));
      check bool (name "sle -1 <= -1") true (I.eval_cmp I.Sle bits m1 m1))
    [ 24; 40 ];
  check i64 "to_signed 24" (-1L) (I.to_signed 24 0xFFFFFFL);
  check i64 "to_signed 40" (Int64.neg 0x8000000000L)
    (I.to_signed 40 0x8000000000L)

let test_eval_cast () =
  check i64 "zext i8->i32" 0xFFL (I.eval_cast I.Zext I.I32 0xFFL I.I8);
  check i64 "sext i8->i32" 0xFFFFFFFFL (I.eval_cast I.Sext I.I32 0xFFL I.I8);
  check i64 "trunc i32->i8" 0x34L (I.eval_cast I.Trunc I.I8 0x1234L I.I32)

let test_ptr_layout () =
  check i64 "null is 0" 0L (I.encode_ptr 0 0);
  check i64 "obj 3 off 5" 0x3_0000_0006L (I.encode_ptr 3 5);
  List.iter
    (fun (o, off) ->
      let raw = I.encode_ptr o off in
      check int "obj round trip" o (I.ptr_obj raw);
      check int "off round trip" off (I.ptr_off raw))
    [ (0, 0); (1, 0); (2, 7); (0x7FFF, 0xFFFF_FFFE); (5, -1) ]

let test_sizes () =
  check int "i8" 1 (I.size_of_ty I.I8);
  check int "i32" 4 (I.size_of_ty I.I32);
  check int "ptr" 8 (I.size_of_ty I.Ptr);
  check int "arr" 12 (I.size_of_ty (I.Arr (I.I32, 3)));
  check int "nested arr" 24 (I.size_of_ty (I.Arr (I.Arr (I.I8, 4), 6)));
  check int "bits i1" 1 (I.bits_of_ty I.I1)

(* ------------- builder & structure ------------- *)

(* build: entry -> (cond ? L1 : L2) -> join; a classic diamond *)
let build_diamond () =
  let b = Builder.create ~name:"diamond" ~params:[ I.I32 ] ~ret:I.I32 in
  let p = List.hd (Builder.param_regs b) in
  let l1 = Builder.new_block b in
  let l2 = Builder.new_block b in
  let join = Builder.new_block b in
  let c = Builder.cmp b I.Sgt I.I32 (I.Reg p) (I.imm I.I32 0L) in
  Builder.term b (I.Cbr (c, l1, l2));
  Builder.switch_to b l1;
  let v1 = Builder.bin b I.Add I.I32 (I.Reg p) (I.imm I.I32 1L) in
  Builder.term b (I.Br join);
  Builder.switch_to b l2;
  let v2 = Builder.bin b I.Sub I.I32 (I.Reg p) (I.imm I.I32 1L) in
  Builder.term b (I.Br join);
  Builder.switch_to b join;
  let d = Builder.fresh b in
  Builder.add_inst b
    (I.Phi (d, I.I32, [ (l1, v1); (l2, v2) ]));
  Builder.term b (I.Ret (Some (I.Reg d)));
  Builder.finish b

(* entry -> header <-> body, header -> exit; a while loop *)
let build_loop () =
  let b = Builder.create ~name:"loop" ~params:[ I.I32 ] ~ret:I.I32 in
  let header = Builder.new_block b and body = Builder.new_block b in
  let exit_ = Builder.new_block b in
  let slot = Builder.entry_alloca b I.I32 1 in
  Builder.store b I.I32 (I.imm I.I32 0L) slot;
  Builder.term b (I.Br header);
  Builder.switch_to b header;
  let i = Builder.load b I.I32 slot in
  let c = Builder.cmp b I.Slt I.I32 i (I.imm I.I32 10L) in
  Builder.term b (I.Cbr (c, body, exit_));
  Builder.switch_to b body;
  let i2 = Builder.load b I.I32 slot in
  let i3 = Builder.bin b I.Add I.I32 i2 (I.imm I.I32 1L) in
  Builder.store b I.I32 i3 slot;
  Builder.term b (I.Br header);
  Builder.switch_to b exit_;
  let r = Builder.load b I.I32 slot in
  Builder.term b (I.Ret (Some r));
  Builder.finish b

let test_builder_diamond () =
  let fn = build_diamond () in
  check int "4 blocks" 4 (I.num_blocks fn);
  Verify.check_exn ~ssa:true fn

let test_builder_loop () =
  let fn = build_loop () in
  check int "4 blocks" 4 (I.num_blocks fn);
  Verify.check_exn ~memform:true fn

let test_func_size () =
  let fn = build_diamond () in
  check int "size counts insts + terminators" (4 + 4) (I.func_size fn)

let test_subst () =
  let fn = build_diamond () in
  let p = List.hd (List.map fst fn.I.params) in
  let fn2 = I.subst_func p (I.imm I.I32 7L) fn in
  (* no more uses of p *)
  let uses = ref 0 in
  I.iter_insts
    (fun _ i ->
      List.iter
        (fun v -> if v = I.Reg p then incr uses)
        (I.uses_of_inst i))
    fn2;
  check int "param uses gone" 0 !uses

(* ------------- CFG ------------- *)

let test_cfg_preds_succs () =
  let fn = build_diamond () in
  let entry = (I.entry fn).I.bid in
  let preds = Cfg.preds fn in
  check int "entry has no preds" 0 (List.length (Cfg.preds_of preds entry));
  let join =
    match List.rev fn.I.blocks with b :: _ -> b.I.bid | [] -> assert false
  in
  check int "join has 2 preds" 2 (List.length (Cfg.preds_of preds join));
  check int "reachable = all" 4 (Cfg.IntSet.cardinal (Cfg.reachable fn))

let test_cfg_rpo () =
  let fn = build_diamond () in
  let order = Cfg.rpo fn in
  check int "rpo covers all" 4 (List.length order);
  check int "entry first" (I.entry fn).I.bid (List.hd order)

let test_remove_unreachable () =
  let fn = build_diamond () in
  (* add an unreachable block *)
  let dead = { I.bid = fn.I.next; insts = []; term = I.Ret (Some (I.imm I.I32 0L)) } in
  let fn = { fn with I.blocks = fn.I.blocks @ [ dead ]; next = fn.I.next + 1 } in
  let (fn', changed) = Cfg.remove_unreachable fn in
  check bool "changed" true changed;
  check int "back to 4" 4 (I.num_blocks fn')

(* ------------- dominators ------------- *)

let test_dominators_diamond () =
  let fn = build_diamond () in
  let dom = Dom.compute fn in
  let bids = List.map (fun (b : I.block) -> b.I.bid) fn.I.blocks in
  match bids with
  | [ entry; l1; l2; join ] ->
      check bool "entry dominates all" true
        (List.for_all (Dom.dominates dom entry) bids);
      check bool "l1 !dom join" false (Dom.dominates dom l1 join);
      check bool "l2 !dom join" false (Dom.dominates dom l2 join);
      check (Alcotest.option int) "idom join = entry" (Some entry)
        (Dom.idom dom join);
      (* dominance frontiers: DF(l1) = DF(l2) = {join} *)
      let df = Dom.frontiers fn dom in
      check bool "df l1 = {join}" true
        (Cfg.IntSet.equal (Dom.frontier_of df l1) (Cfg.IntSet.singleton join));
      check bool "df entry empty" true
        (Cfg.IntSet.is_empty (Dom.frontier_of df entry))
  | _ -> Alcotest.fail "unexpected block structure"

(* the Euler-tour O(1) dominance must agree with the definition on a deep
   chain (the shape heavy peeling produces) *)
let test_dominates_deep_chain () =
  let b = Builder.create ~name:"chain" ~params:[] ~ret:I.I32 in
  let blocks = Array.init 300 (fun _ -> Builder.new_block b) in
  Builder.term b (I.Br blocks.(0));
  Array.iteri
    (fun i l ->
      Builder.switch_to b l;
      if i + 1 < Array.length blocks then Builder.term b (I.Br blocks.(i + 1))
      else Builder.term b (I.Ret (Some (I.imm I.I32 0L))))
    blocks;
  let fn = Builder.finish b in
  let dom = Dom.compute fn in
  check bool "first dominates last" true
    (Dom.dominates dom blocks.(0) blocks.(299));
  check bool "mid dominates later" true
    (Dom.dominates dom blocks.(100) blocks.(200));
  check bool "later does not dominate earlier" false
    (Dom.dominates dom blocks.(200) blocks.(100));
  check bool "entry dominates all" true
    (Dom.dominates dom (I.entry fn).I.bid blocks.(299))

(* regression for the mem2reg bug: a loop header must be in its own
   dominance frontier *)
let test_frontier_self_loop () =
  let fn = build_loop () in
  let dom = Dom.compute fn in
  let df = Dom.frontiers fn dom in
  let header = List.nth (List.map (fun (b : I.block) -> b.I.bid) fn.I.blocks) 1 in
  check bool "header in own frontier" true
    (Cfg.IntSet.mem header (Dom.frontier_of df header))

(* ------------- loops ------------- *)

let test_loop_detection () =
  let fn = build_loop () in
  let loops = Loop.find fn in
  check int "one loop" 1 (List.length loops);
  let l = List.hd loops in
  check int "two blocks in loop" 2 (Cfg.IntSet.cardinal l.Loop.blocks);
  check int "one latch" 1 (List.length l.Loop.latches);
  check int "one exit" 1 (List.length l.Loop.exits);
  check bool "has preheader" true (l.Loop.preheader <> None)

let test_loop_depths () =
  let fn = build_loop () in
  let depth = Loop.depth_map fn in
  let l = List.hd (Loop.find fn) in
  check int "header depth 1" 1 (Hashtbl.find depth l.Loop.header);
  check int "entry depth 0" 0 (Hashtbl.find depth (I.entry fn).I.bid)

let test_no_loops_in_diamond () =
  check int "diamond has no loops" 0 (List.length (Loop.find (build_diamond ())))

(* ------------- the analyses against their definitions ------------- *)

module IntSet = Cfg.IntSet

let cfg_func terms =
  {
    I.fname = "g";
    params = [];
    ret = I.Void;
    blocks =
      List.mapi (fun bid term -> { I.bid; insts = []; term }) terms;
    next = List.length terms;
    fmeta = [];
  }

(* random CFGs over labels 0..n-1, entry 0: branches to random blocks,
   self-loops, same-target [Cbr]s, and blocks nothing reaches *)
let cfg_gen =
  QCheck2.Gen.(
    int_range 1 12 >>= fun n ->
    let label = int_range 0 (n - 1) in
    let cond = I.imm_bool true in
    let term =
      frequency
        [
          (3, map (fun l -> I.Br l) label);
          (4, map2 (fun t e -> I.Cbr (cond, t, e)) label label);
          (1, map (fun l -> I.Cbr (cond, l, l)) label);
          (1, pure (I.Ret None));
        ]
    in
    map cfg_func (list_repeat n term))

let succs_naive fn l =
  match List.find_opt (fun (b : I.block) -> b.I.bid = l) fn.I.blocks with
  | Some b -> Cfg.succs b
  | None -> []

let preds_naive fn l =
  List.filter_map
    (fun (b : I.block) ->
      if List.mem l (Cfg.succs b) then Some b.I.bid else None)
    fn.I.blocks

(* recursive DFS, successors in order, skipping [avoid] *)
let postorder_naive ?(avoid = -1) fn =
  let seen = Hashtbl.create 16 and order = ref [] in
  let rec go l =
    if l <> avoid && not (Hashtbl.mem seen l) then begin
      Hashtbl.replace seen l ();
      List.iter go (succs_naive fn l);
      order := l :: !order
    end
  in
  go 0;
  List.rev !order

(* a dominates b iff b is unreachable once a is removed *)
let dominates_naive fn a b =
  not (List.mem b (postorder_naive ~avoid:a fn))

let prop_cfg_order fn =
  let po = postorder_naive fn in
  Cfg.postorder fn = po
  && Cfg.rpo fn = List.rev po
  && IntSet.equal (Cfg.reachable fn) (IntSet.of_list po)
  && List.for_all
       (fun (b : I.block) ->
         Cfg.preds_of (Cfg.preds fn) b.I.bid = preds_naive fn b.I.bid)
       fn.I.blocks

let prop_dominators fn =
  let dom = Dom.compute fn in
  let live = postorder_naive fn in
  List.for_all
    (fun b ->
      List.for_all
        (fun a -> Dom.dominates dom a b = dominates_naive fn a b)
        live
      &&
      (* the immediate dominator is the strict dominator every other strict
         dominator dominates *)
      let strict =
        List.filter (fun a -> a <> b && dominates_naive fn a b) live
      in
      match Dom.idom dom b with
      | None -> strict = []
      | Some d ->
          List.mem d strict
          && List.for_all (fun a -> dominates_naive fn a d) strict)
    live
  && List.for_all
       (fun (b : I.block) ->
         List.mem b.I.bid live || Dom.idom dom b.I.bid = None)
       fn.I.blocks

(* natural loops straight from the definition: a back edge u -> h has a
   reachable u dominated by h; h's loop is h plus every block that reaches
   a latch without passing through h, over all predecessors *)
let loops_naive fn =
  let live = postorder_naive fn in
  let rpo = List.rev live in
  let back =
    List.concat_map
      (fun u ->
        List.filter_map
          (fun h -> if dominates_naive fn h u then Some (h, u) else None)
          (succs_naive fn u))
      live
  in
  let headers = List.filter (fun h -> List.mem_assoc h back) rpo in
  List.map
    (fun h ->
      let latches =
        List.sort compare
          (List.filter_map (fun (h', u) -> if h' = h then Some u else None) back)
      in
      let body = ref (IntSet.singleton h) in
      let rec walk l =
        if not (IntSet.mem l !body) then begin
          body := IntSet.add l !body;
          List.iter walk (preds_naive fn l)
        end
      in
      List.iter walk latches;
      let body = !body in
      let outside l = not (IntSet.mem l body) in
      let exiting =
        List.filter
          (fun l -> List.exists outside (succs_naive fn l))
          (IntSet.elements body)
      in
      let exits =
        List.sort_uniq compare
          (List.concat_map
             (fun l -> List.filter outside (succs_naive fn l))
             (IntSet.elements body))
      in
      let preheader =
        match List.filter outside (preds_naive fn h) with
        | [ p ] when succs_naive fn p = [ h ] -> Some p
        | _ -> None
      in
      (h, latches, IntSet.elements body, exiting, exits, preheader))
    headers

let prop_loops fn =
  List.map
    (fun (l : Loop.t) ->
      ( l.Loop.header,
        List.sort compare l.Loop.latches,
        IntSet.elements l.Loop.blocks,
        l.Loop.exiting,
        l.Loop.exits,
        l.Loop.preheader ))
    (Loop.find fn)
  = loops_naive fn

let kernel_tests =
  List.map
    (fun (name, prop) ->
      QCheck_alcotest.to_alcotest
        (QCheck2.Test.make ~name ~count:500
           ~print:Printer.func_to_string cfg_gen prop))
    [
      ("postorder, rpo, reachable and preds match a naive DFS", prop_cfg_order);
      ("dominance and idom match the definition", prop_dominators);
      ("Loop.find matches the natural loops of back edges", prop_loops);
    ]

(* 100k-deep graphs: every analysis must run without a stack overflow.
   [chain n]: entry -> 1 -> ... -> n, and n loops back to 1 *)
let chain n =
  let cond = I.imm_bool true in
  cfg_func
    (List.init (n + 2) (fun l ->
         if l = n then I.Cbr (cond, 1, n + 1)
         else if l = n + 1 then I.Ret None
         else I.Br (l + 1)))

(* [diamonds n]: n diamonds in a row, head 3k+1 -> 3k+2 | 3k+3 -> next
   head, the last head loops back to the first *)
let diamonds n =
  let cond = I.imm_bool true in
  let last = (3 * n) + 1 in
  cfg_func
    (List.init (last + 2) (fun l ->
         if l = 0 then I.Br 1
         else if l = last then I.Cbr (cond, 1, last + 1)
         else if l = last + 1 then I.Ret None
         else
           match (l - 1) mod 3 with
           | 0 -> I.Cbr (cond, l + 1, l + 2)
           | 1 -> I.Br (l + 2)
           | _ -> I.Br (l + 1)))

let test_deep fn ~first ~last () =
  let blocks = I.num_blocks fn in
  check int "postorder covers all" blocks (List.length (Cfg.postorder fn));
  check int "reachable covers all" blocks
    (IntSet.cardinal (Cfg.reachable fn));
  let dom = Dom.compute fn in
  check bool "first dominates last" true (Dom.dominates dom first last);
  check bool "last does not dominate first" false
    (Dom.dominates dom last first);
  match Loop.find fn with
  | [ l ] ->
      check int "header" first l.Loop.header;
      check (Alcotest.list int) "latch" [ last ] l.Loop.latches;
      check int "body" (blocks - 2) (IntSet.cardinal l.Loop.blocks)
  | ls -> Alcotest.failf "expected one loop, found %d" (List.length ls)

let test_deep_chain () =
  test_deep (chain 100_000) ~first:1 ~last:100_000 ()

let test_deep_diamonds () =
  let n = 100_000 in
  let fn = diamonds n in
  test_deep fn ~first:1 ~last:((3 * n) + 1) ();
  let dom = Dom.compute fn in
  check (Alcotest.option int) "a join's idom is its head" (Some 1)
    (Dom.idom dom 4)

(* ------------- verifier ------------- *)

let expect_invalid ?ssa ?memform fn =
  match Verify.check ?ssa ?memform fn with
  | Ok () -> Alcotest.fail "verifier accepted invalid IR"
  | Error _ -> ()

let test_verify_catches_double_def () =
  let fn = build_diamond () in
  let blk = I.entry fn in
  let dup =
    { blk with I.insts = blk.I.insts @ blk.I.insts }
  in
  expect_invalid (I.update_block fn dup)

let test_verify_catches_bad_target () =
  let fn = build_diamond () in
  let blk = I.entry fn in
  let bad = { blk with I.term = I.Br 9999 } in
  expect_invalid (I.update_block fn bad)

let test_verify_catches_type_error () =
  let b = Builder.create ~name:"bad" ~params:[ I.I32 ] ~ret:I.I32 in
  let p = List.hd (Builder.param_regs b) in
  (* i8 add over an i32 operand *)
  let v = Builder.bin b I.Add I.I8 (I.Reg p) (I.imm I.I8 1L) in
  ignore v;
  Builder.term b (I.Ret (Some (I.Reg p)));
  expect_invalid (Builder.finish b)

let test_verify_catches_use_before_def () =
  let b = Builder.create ~name:"ubd" ~params:[] ~ret:I.I32 in
  let d1 = Builder.fresh b in
  let d2 = Builder.fresh b in
  Builder.add_inst b (I.Bin (d1, I.Add, I.I32, I.Reg d2, I.imm I.I32 1L));
  Builder.add_inst b (I.Bin (d2, I.Add, I.I32, I.imm I.I32 1L, I.imm I.I32 1L));
  Builder.term b (I.Ret (Some (I.Reg d1)));
  expect_invalid ~ssa:true (Builder.finish b)

let test_verify_accepts_good () =
  Verify.check_exn ~ssa:true (build_diamond ());
  Verify.check_exn (build_loop ())

(* ------------- typing ------------- *)

let test_typing () =
  let fn = build_diamond () in
  let t = Typing.of_func fn in
  let p = List.hd (List.map fst fn.I.params) in
  check bool "param typed i32" true (Typing.reg_ty t p = I.I32);
  check bool "glob is ptr" true (Typing.value_ty t (I.Glob "g") = I.Ptr)

(* ------------- callgraph ------------- *)

let simple_module () =
  let mk name callees =
    let b = Builder.create ~name ~params:[] ~ret:I.I32 in
    List.iter (fun c -> ignore (Builder.call b I.I32 c [])) callees;
    Builder.term b (I.Ret (Some (I.imm I.I32 0L)));
    Builder.finish b
  in
  {
    I.globals = [];
    funcs =
      [ mk "main" [ "a"; "b" ]; mk "a" [ "b" ]; mk "b" []; mk "r" [ "r" ] ];
  }

let test_callgraph () =
  let m = simple_module () in
  let main = I.find_func_exn m "main" in
  check (Alcotest.list Alcotest.string) "callees" [ "a"; "b" ]
    (Callgraph.callees m main);
  check bool "r cyclic" true (Callgraph.in_cycle m "r");
  check bool "a acyclic" false (Callgraph.in_cycle m "a");
  let order = Callgraph.bottom_up_order m in
  let pos x = Option.get (List.find_index (( = ) x) order) in
  check bool "b before a" true (pos "b" < pos "a");
  check bool "a before main" true (pos "a" < pos "main");
  let reachable from =
    List.map (fun (f : I.func) -> f.I.fname) (Callgraph.reachable m from)
  in
  check (Alcotest.list Alcotest.string) "reachable from main, module order"
    [ "main"; "a"; "b" ] (reachable "main");
  check (Alcotest.list Alcotest.string) "reachable from a leaf" [ "b" ]
    (reachable "b");
  check (Alcotest.list Alcotest.string) "reachable through a self-call"
    [ "r" ] (reachable "r")

(* Tarjan SCC grouping: a two-function cycle (mutual recursion) must land
   in one SCC and be flagged cyclic — the summary layer keys on this to
   make recursive functions Opaque *)
let test_sccs () =
  let mk name callees =
    let b = Builder.create ~name ~params:[] ~ret:I.I32 in
    List.iter (fun c -> ignore (Builder.call b I.I32 c [])) callees;
    Builder.term b (I.Ret (Some (I.imm I.I32 0L)));
    Builder.finish b
  in
  let m =
    {
      I.globals = [];
      funcs =
        [ mk "main" [ "even"; "leaf" ]; mk "even" [ "odd" ];
          mk "odd" [ "even"; "leaf" ]; mk "leaf" [] ];
    }
  in
  let sccs = Callgraph.sccs m in
  let scc_of n = List.find (List.mem n) sccs in
  check (Alcotest.list Alcotest.string) "even and odd form one SCC"
    [ "even"; "odd" ]
    (List.sort compare (scc_of "even"));
  check bool "main is a singleton SCC" true (scc_of "main" = [ "main" ]);
  let cyc = Callgraph.cyclic m in
  check bool "even cyclic" true (Callgraph.StrSet.mem "even" cyc);
  check bool "odd cyclic" true (Callgraph.StrSet.mem "odd" cyc);
  check bool "main acyclic" false (Callgraph.StrSet.mem "main" cyc);
  check bool "leaf acyclic" false (Callgraph.StrSet.mem "leaf" cyc);
  (* reverse topological order: every callee's SCC precedes its callers' *)
  let pos n =
    Option.get (List.find_index (fun scc -> List.mem n scc) sccs)
  in
  check bool "leaf before the cycle" true (pos "leaf" < pos "even");
  check bool "cycle before main" true (pos "even" < pos "main")

(* ------------- printer ------------- *)

let test_printer () =
  let fn = build_diamond () in
  let s = Printer.func_to_string fn in
  let contains sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  check bool "define" true (contains "define i32 @diamond");
  check bool "phi" true (contains "phi");
  check bool "icmp" true (contains "icmp sgt");
  check bool "ret" true (contains "ret")

let () =
  Alcotest.run "ir"
    [
      ( "constants",
        [
          Alcotest.test_case "norm" `Quick test_norm;
          Alcotest.test_case "signed_of" `Quick test_signed_of;
          Alcotest.test_case "eval_binop" `Quick test_eval_binop;
          Alcotest.test_case "eval_cmp" `Quick test_eval_cmp;
          Alcotest.test_case "eval_cast" `Quick test_eval_cast;
          Alcotest.test_case "pointer layout" `Quick test_ptr_layout;
          Alcotest.test_case "sizes" `Quick test_sizes;
        ] );
      ( "builder",
        [
          Alcotest.test_case "diamond" `Quick test_builder_diamond;
          Alcotest.test_case "loop" `Quick test_builder_loop;
          Alcotest.test_case "func_size" `Quick test_func_size;
          Alcotest.test_case "subst" `Quick test_subst;
        ] );
      ( "cfg",
        [
          Alcotest.test_case "preds/succs" `Quick test_cfg_preds_succs;
          Alcotest.test_case "rpo" `Quick test_cfg_rpo;
          Alcotest.test_case "remove_unreachable" `Quick test_remove_unreachable;
        ] );
      ( "dominators",
        [
          Alcotest.test_case "diamond" `Quick test_dominators_diamond;
          Alcotest.test_case "deep chain (Euler-tour query)" `Quick
            test_dominates_deep_chain;
          Alcotest.test_case "loop header in own frontier (regression)" `Quick
            test_frontier_self_loop;
        ] );
      ( "loops",
        [
          Alcotest.test_case "detection" `Quick test_loop_detection;
          Alcotest.test_case "depths" `Quick test_loop_depths;
          Alcotest.test_case "diamond loop-free" `Quick test_no_loops_in_diamond;
        ] );
      ("vs naive", kernel_tests);
      ( "deep cfgs",
        [
          Alcotest.test_case "100k-block chain" `Quick test_deep_chain;
          Alcotest.test_case "100k-deep chain of diamonds" `Quick
            test_deep_diamonds;
        ] );
      ( "verifier",
        [
          Alcotest.test_case "double def" `Quick test_verify_catches_double_def;
          Alcotest.test_case "bad target" `Quick test_verify_catches_bad_target;
          Alcotest.test_case "type error" `Quick test_verify_catches_type_error;
          Alcotest.test_case "use before def" `Quick
            test_verify_catches_use_before_def;
          Alcotest.test_case "accepts good IR" `Quick test_verify_accepts_good;
        ] );
      ( "typing",
        [ Alcotest.test_case "of_func" `Quick test_typing ] );
      ( "callgraph",
        [
          Alcotest.test_case "basics" `Quick test_callgraph;
          Alcotest.test_case "tarjan sccs (two-function cycle)" `Quick
            test_sccs;
        ] );
      ( "printer",
        [ Alcotest.test_case "contains expected text" `Quick test_printer ] );
    ]
