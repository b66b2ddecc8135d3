(** Solver tests: term simplification, the CDCL SAT core, bit-blasting
    correctness (QCheck against brute force and against [Bv.eval]), and the
    query cache. *)

module Bv = Overify_solver.Bv
module Sat = Overify_solver.Sat
module Solver = Overify_solver.Solver
module Counters = Overify_obs.Obs.Counters

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

(* ------------- term constructors ------------- *)

let test_hash_consing () =
  let x = Bv.var 8 1 in
  let a = Bv.binop Bv.Add x (Bv.const 8 3L) in
  let b = Bv.binop Bv.Add x (Bv.const 8 3L) in
  check bool "same id" true (a.Bv.id = b.Bv.id)

let test_const_fold () =
  check bool "add folds" true
    (Bv.binop Bv.Add (Bv.const 8 200L) (Bv.const 8 100L) = Bv.const 8 44L);
  check bool "cmp folds" true
    (Bv.cmp Bv.Slt (Bv.const 8 0xFFL) (Bv.const 8 1L) = Bv.tt)

let test_identities () =
  let x = Bv.var 32 7 in
  check bool "x+0" true (Bv.binop Bv.Add x (Bv.const 32 0L) = x);
  check bool "x*1" true (Bv.binop Bv.Mul x (Bv.const 32 1L) = x);
  check bool "x-x" true (Bv.binop Bv.Sub x x = Bv.const 32 0L);
  check bool "x^x" true (Bv.binop Bv.Xor x x = Bv.const 32 0L);
  check bool "x&x" true (Bv.binop Bv.And x x = x);
  check bool "x==x" true (Bv.cmp Bv.Eq x x = Bv.tt);
  check bool "x<x" true (Bv.cmp Bv.Slt x x = Bv.ff);
  check bool "not not" true (Bv.not_ (Bv.not_ (Bv.cmp Bv.Ne x (Bv.const 32 0L)))
                             = Bv.cmp Bv.Ne x (Bv.const 32 0L))

let test_pow2_strength_reduction () =
  let x = Bv.var 32 8 in
  (match (Bv.binop Bv.Udiv x (Bv.const 32 8L)).Bv.node with
  | Bv.Bin (Bv.Lshr, _, _) -> ()
  | _ -> Alcotest.fail "udiv by 8 should become lshr");
  match (Bv.binop Bv.Urem x (Bv.const 32 8L)).Bv.node with
  | Bv.Bin (Bv.And, _, _) -> ()
  | _ -> Alcotest.fail "urem by 8 should become and"

let test_ite_simplify () =
  let c = Bv.cmp Bv.Eq (Bv.var 8 9) (Bv.const 8 1L) in
  check bool "ite c 1 0 = c" true (Bv.ite c Bv.tt Bv.ff = c);
  check bool "ite c x x = x" true
    (let x = Bv.var 8 10 in Bv.ite c x x = x);
  (* (ite c 5 9) == 5  ==>  c *)
  let t = Bv.cmp Bv.Eq (Bv.ite c (Bv.const 8 5L) (Bv.const 8 9L)) (Bv.const 8 5L) in
  check bool "ite-eq reduces" true (t = c)

let test_extract_concat () =
  let hi = Bv.var 8 11 and lo = Bv.var 8 12 in
  let cc = Bv.concat hi lo in
  check bool "extract low" true (Bv.extract ~hi:7 ~lo:0 cc = lo);
  check bool "extract high" true (Bv.extract ~hi:15 ~lo:8 cc = hi);
  check bool "zext const" true (Bv.zext 32 (Bv.const 8 0xFFL) = Bv.const 32 0xFFL);
  check bool "sext const" true
    (Bv.sext 32 (Bv.const 8 0xFFL) = Bv.const 32 0xFFFFFFFFL);
  check bool "trunc of zext" true (Bv.trunc 8 (Bv.zext 32 lo) = lo)

let test_eval () =
  let x = Bv.var 8 1 and y = Bv.var 8 2 in
  let t = Bv.ite (Bv.cmp Bv.Ult x y) (Bv.binop Bv.Add x y) (Bv.binop Bv.Sub x y) in
  let lookup = function 1 -> 3L | 2 -> 10L | _ -> 0L in
  check Alcotest.int64 "ite-add" 13L (Bv.eval lookup t);
  let lookup2 = function 1 -> 10L | 2 -> 3L | _ -> 0L in
  check Alcotest.int64 "ite-sub" 7L (Bv.eval lookup2 t)

(* [Bv.reset] drops the table but never rewinds the id counter: a term
   that outlives a reset (one a caller kept from an earlier run) must not
   share an id with a term built after it, or the
   id-keyed layers (hash-consing, Canon's memos, the solver's id table)
   take one for the other *)
let test_reset_keeps_ids () =
  Bv.reset ();
  let s = Bv.const 64 5L in
  Bv.reset ();
  let v = Bv.var 64 77 and x = Bv.var 64 78 in
  check bool "no id handed out twice" true
    (s.Bv.id <> v.Bv.id && s.Bv.id <> x.Bv.id);
  let live = Bv.binop Bv.Sub v x in
  let stale = Bv.binop Bv.Sub s x in
  check bool "5 - x is not v - x" true (stale != live);
  check Alcotest.int64 "5 - x at x = 0" 5L (Bv.eval (fun _ -> 0L) stale);
  check bool "booleans survive" true
    (Bv.const 1 1L == Bv.tt && Bv.const 1 0L == Bv.ff)

let test_vars () =
  let x = Bv.var 8 1 and y = Bv.var 16 2 in
  let t = Bv.cmp Bv.Eq (Bv.zext 16 x) y in
  let vs = Bv.vars t in
  check int "two vars" 2 (Hashtbl.length vs);
  check (Alcotest.option int) "x width" (Some 8) (Hashtbl.find_opt vs 1)

(* ------------- SAT core ------------- *)

let lit = Sat.lit_of_var

let test_sat_trivial () =
  let s = Sat.create () in
  let a = Sat.new_var s in
  Sat.add_clause s [| lit a true |];
  check bool "sat" true (Sat.solve s);
  check bool "a true" true (Sat.model_value s a)

let test_sat_unsat () =
  let s = Sat.create () in
  let a = Sat.new_var s in
  Sat.add_clause s [| lit a true |];
  Sat.add_clause s [| lit a false |];
  check bool "unsat" false (Sat.solve s)

let test_sat_chain () =
  (* implication chain a -> b -> c -> d with a forced *)
  let s = Sat.create () in
  let v = Array.init 4 (fun _ -> Sat.new_var s) in
  Sat.add_clause s [| lit v.(0) true |];
  for i = 0 to 2 do
    Sat.add_clause s [| lit v.(i) false; lit v.(i + 1) true |]
  done;
  check bool "sat" true (Sat.solve s);
  Array.iter (fun x -> check bool "forced true" true (Sat.model_value s x)) v

let test_sat_pigeonhole () =
  (* 3 pigeons, 2 holes: unsat; classic resolution stress *)
  let s = Sat.create () in
  let p = Array.init 3 (fun _ -> Array.init 2 (fun _ -> Sat.new_var s)) in
  (* each pigeon in some hole *)
  Array.iter (fun row -> Sat.add_clause s [| lit row.(0) true; lit row.(1) true |]) p;
  (* no two pigeons share a hole *)
  for h = 0 to 1 do
    for i = 0 to 2 do
      for j = i + 1 to 2 do
        Sat.add_clause s [| lit p.(i).(h) false; lit p.(j).(h) false |]
      done
    done
  done;
  check bool "pigeonhole unsat" false (Sat.solve s)

(* random 3-SAT instances cross-checked against brute force *)
let test_sat_random_vs_bruteforce () =
  let rng = Random.State.make [| 0xC0FFEE |] in
  for _ = 1 to 120 do
    let nvars = 1 + Random.State.int rng 8 in
    let nclauses = 1 + Random.State.int rng 24 in
    let clauses =
      List.init nclauses (fun _ ->
          List.init
            (1 + Random.State.int rng 3)
            (fun _ -> (Random.State.int rng nvars, Random.State.bool rng)))
    in
    (* brute force *)
    let bf = ref false in
    for m = 0 to (1 lsl nvars) - 1 do
      if
        List.for_all
          (List.exists (fun (v, pos) -> (m lsr v) land 1 = if pos then 1 else 0))
          clauses
      then bf := true
    done;
    let s = Sat.create () in
    let vars = Array.init nvars (fun _ -> Sat.new_var s) in
    List.iter
      (fun c ->
        Sat.add_clause s
          (Array.of_list (List.map (fun (v, pos) -> lit vars.(v) pos) c)))
      clauses;
    let got = Sat.solve s in
    if got <> !bf then
      Alcotest.failf "SAT solver disagrees with brute force (expected %b)" !bf;
    (* model check *)
    if got then begin
      let ok =
        List.for_all
          (List.exists (fun (v, pos) -> Sat.model_value s vars.(v) = pos))
          clauses
      in
      check bool "model satisfies" true ok
    end
  done

(* ------------- blasting: QCheck properties ------------- *)

let ops = [| Bv.Add; Bv.Sub; Bv.Mul; Bv.Sdiv; Bv.Udiv; Bv.Srem; Bv.Urem;
             Bv.And; Bv.Or; Bv.Xor; Bv.Shl; Bv.Lshr; Bv.Ashr |]
let cmps = [| Bv.Eq; Bv.Ne; Bv.Slt; Bv.Sle; Bv.Sgt; Bv.Sge; Bv.Ult; Bv.Ule;
              Bv.Ugt; Bv.Uge |]

let gen_case =
  QCheck2.Gen.(
    tup4 (int_range 0 (Array.length ops - 1))
      (int_range 0 (Array.length cmps - 1))
      (map Int64.of_int (int_range 0 255))
      (map Int64.of_int (int_range 0 255)))

(* solver vs brute force at 8 bits (both SAT answers and model soundness) *)
let prop_solver_vs_bruteforce =
  QCheck2.Test.make ~name:"8-bit solver matches brute force" ~count:120
    gen_case (fun (oi, ci, c1, c2) ->
      let x = Bv.var 8 1 and y = Bv.var 8 2 in
      let t = Bv.cmp cmps.(ci) (Bv.binop ops.(oi) x y) (Bv.const 8 c1) in
      let t2 = Bv.cmp Bv.Ult x (Bv.const 8 c2) in
      let bf = ref false in
      (try
         for xv = 0 to 255 do
           for yv = 0 to 255 do
             let lookup id = if id = 1 then Int64.of_int xv else Int64.of_int yv in
             if Bv.eval lookup t = 1L && Bv.eval lookup t2 = 1L then begin
               bf := true;
               raise Exit
             end
           done
         done
       with Exit -> ());
      match Solver.check (Solver.create ()) [ t; t2 ] with
      | Solver.Sat model ->
          if not !bf then
            QCheck2.Test.fail_reportf "solver SAT, brute force UNSAT: %s"
              (Bv.to_string t)
          else begin
            let lookup id = Solver.model_value model id in
            Bv.eval lookup t = 1L && Bv.eval lookup t2 = 1L
          end
      | Solver.Unsat ->
          if !bf then
            QCheck2.Test.fail_reportf "solver UNSAT, brute force SAT: %s"
              (Bv.to_string t)
          else true)

(* model soundness at 32 bits (brute force impossible; check the model) *)
let prop_model_sound_32 =
  QCheck2.Test.make ~name:"32-bit models satisfy their query" ~count:40
    gen_case (fun (oi, ci, c1, c2) ->
      let x = Bv.var 32 1 and y = Bv.var 32 2 in
      let t =
        Bv.cmp cmps.(ci) (Bv.binop ops.(oi) x y)
          (Bv.const 32 (Int64.mul c1 1234567L))
      in
      let t2 = Bv.cmp Bv.Ugt y (Bv.const 32 c2) in
      match Solver.check (Solver.create ()) [ t; t2 ] with
      | Solver.Sat model ->
          let lookup id = Solver.model_value model id in
          Bv.eval lookup t = 1L && Bv.eval lookup t2 = 1L
      | Solver.Unsat -> true)

(* blast/eval agreement: pin variables with equality constraints and check
   the solver agrees with direct evaluation *)
let prop_blast_matches_eval =
  QCheck2.Test.make ~name:"blasting agrees with Bv.eval on pinned vars"
    ~count:80
    QCheck2.Gen.(
      tup4 (int_range 0 (Array.length ops - 1))
        (map Int64.of_int (int_range 0 255))
        (map Int64.of_int (int_range 0 255))
        (oneofl [ 8; 16; 32; 64 ]))
    (fun (oi, xv, yv, w) ->
      let x = Bv.var w 1 and y = Bv.var w 2 in
      let expr = Bv.binop ops.(oi) x y in
      let expected =
        Bv.eval (function 1 -> xv | 2 -> yv | _ -> 0L) expr
      in
      let pin =
        [ Bv.cmp Bv.Eq x (Bv.const w xv); Bv.cmp Bv.Eq y (Bv.const w yv);
          Bv.cmp Bv.Eq expr (Bv.const w expected) ]
      in
      match Solver.check (Solver.create ()) pin with
      | Solver.Sat _ -> true
      | Solver.Unsat ->
          QCheck2.Test.fail_reportf
            "circuit disagrees with eval: op %d width %d x=%Ld y=%Ld \
             expected %Ld"
            oi w xv yv expected)

(* ------------- solver interface (explicit contexts) ------------- *)

(* a context with its own counters record, returned alongside *)
let counted ?cache ?store () =
  let c = Counters.create () in
  (Solver.create ~counters:c ?cache ?store (), c)

let test_trivial_queries_no_sat () =
  let ctx, c = counted () in
  (match Solver.check ctx [ Bv.tt ] with
  | Solver.Sat _ -> ()
  | Solver.Unsat -> Alcotest.fail "true is sat");
  (match Solver.check ctx [ Bv.ff ] with
  | Solver.Unsat -> ()
  | Solver.Sat _ -> Alcotest.fail "false is unsat");
  check int "2 queries counted" 2 c.Counters.queries;
  check int "no blasting" 0 c.Counters.component_solves

(* the reuse-layer tests pin [~cache:true] so they hold even when the
   suite is re-run under OVERIFY_SOLVER_CACHE=0 (the @ci-cache-off pass) *)
let test_cache_hits () =
  let ctx, c = counted ~cache:true () in
  let x = Bv.var 8 77 in
  let q = [ Bv.cmp Bv.Ugt x (Bv.const 8 100L) ] in
  ignore (Solver.check ctx q);
  ignore (Solver.check ctx q);
  check int "second hit cached" 1 c.Counters.cache_hits

(* two contexts share nothing: a query cached in one is a miss in the
   other, and counters advance independently *)
let test_ctx_isolation () =
  let ctx1, c1 = counted ~cache:true ()
  and ctx2, c2 = counted ~cache:true () in
  let x = Bv.var 8 78 in
  let q = [ Bv.cmp Bv.Ult x (Bv.const 8 10L) ] in
  ignore (Solver.check ctx1 q);
  ignore (Solver.check ctx1 q);
  check int "c1 hit" 1 c1.Counters.cache_hits;
  check int "c2 untouched" 0 c2.Counters.queries;
  ignore (Solver.check ctx2 q);
  check int "c2 miss despite c1's cache" 0 c2.Counters.cache_hits;
  check int "c1 unaffected by c2" 2 c1.Counters.queries

(* each of two domains hammers its own context (on distinct variables, with
   terms built inside the domain to also exercise the hash-cons lock);
   counters must come out exact, proving no cross-context interference *)
let test_ctx_concurrent_domains () =
  let n = 40 in
  let work var_base () =
    let ctx, c = counted ~cache:true () in
    for i = 0 to n - 1 do
      let x = Bv.var 8 (var_base + i) in
      let q = [ Bv.cmp Bv.Ugt x (Bv.const 8 (Int64.of_int (i mod 200))) ] in
      ignore (Solver.check ctx q);
      ignore (Solver.check ctx q)
    done;
    c
  in
  let d = Domain.spawn (work 2_000) in
  let s1 = work 3_000 () in
  let s2 = Domain.join d in
  check int "domain1 queries" (2 * n) s1.Counters.queries;
  check int "domain2 queries" (2 * n) s2.Counters.queries;
  check int "domain1 hits" n s1.Counters.cache_hits;
  check int "domain2 hits" n s2.Counters.cache_hits;
  check int "summed queries" (4 * n) (s1.Counters.queries + s2.Counters.queries)

(* ------------- acceleration chain: differential oracle -------------

   ~2,000 seeded random assertion sets, each answered three ways: by the
   full acceleration chain on one warm (shared) context with a store
   (random sets rarely repeat a term-id set, so its reuse is store hits
   on α-equivalent components, translated through renaming), by the chain
   on a fresh context, and by a reference solver that goes straight to
   blast + SAT with no canonicalization, partitioning or caching.  All three
   verdicts must agree; warm and fresh must return the *same model* (the
   determinism contract: answers are a pure function of the assertion set,
   not of cache history); and every SAT model must evaluate every assertion
   to true. *)

module Canon = Overify_solver.Canon
module Blast = Overify_solver.Blast
module Store = Overify_solver.Store
module Binfile = Overify_solver.Binfile

let gen_term rng =
  let atom () =
    if Random.State.int rng 3 = 0 then
      Bv.const 8 (Int64.of_int (Random.State.int rng 256))
    else Bv.var 8 (600 + Random.State.int rng 5)
  in
  let binops = [| Bv.Add; Bv.Sub; Bv.Mul; Bv.And; Bv.Or; Bv.Xor |] in
  let cmpops = [| Bv.Eq; Bv.Ne; Bv.Ult; Bv.Ule; Bv.Slt; Bv.Ugt |] in
  let rec expr depth =
    if depth = 0 || Random.State.int rng 4 = 0 then atom ()
    else
      Bv.binop
        binops.(Random.State.int rng (Array.length binops))
        (expr (depth - 1))
        (expr (depth - 1))
  in
  let t =
    Bv.cmp cmpops.(Random.State.int rng (Array.length cmpops)) (expr 2)
      (expr 2)
  in
  if Random.State.bool rng then t else Bv.not_ t

let gen_assertions rng =
  List.init (1 + Random.State.int rng 5) (fun _ -> gen_term rng)

(* verdict by direct blast+SAT of the conjunction — no reuse layers, no
   normalization, no partitioning (only the same constant pruning
   [Solver.check] applies first) *)
let reference_is_sat (assertions : Bv.t list) : bool =
  let live =
    List.filter (fun (t : Bv.t) -> t.Bv.node <> Bv.Const 1L) assertions
  in
  if List.exists (fun (t : Bv.t) -> t.Bv.node = Bv.Const 0L) live then false
  else if live = [] then true
  else begin
    let b = Blast.create () in
    List.iter (Blast.assert_true b) live;
    Sat.solve b.Blast.sat
  end

let model_satisfies model assertions =
  let lookup v = Solver.model_value model v in
  List.for_all (fun a -> Bv.eval lookup a = 1L) assertions

let test_differential_oracle () =
  let rng = Random.State.make [| 0xace5 |] in
  let warm, s = counted ~cache:true ~store:(Store.in_memory ()) () in
  for i = 1 to 2_000 do
    let assertions = gen_assertions rng in
    let expected = reference_is_sat assertions in
    let run name ctx =
      match Solver.check ctx assertions with
      | Solver.Unsat ->
          if expected then
            Alcotest.failf "query %d: %s chain says Unsat, reference says Sat"
              i name;
          Solver.Unsat
      | Solver.Sat m ->
          if not expected then
            Alcotest.failf "query %d: %s chain says Sat, reference says Unsat"
              i name;
          if not (model_satisfies m assertions) then
            Alcotest.failf
              "query %d: %s chain's model does not satisfy the assertions" i
              name;
          Solver.Sat m
    in
    let rw = run "warm" warm in
    let rf = run "fresh" (Solver.create ~cache:true ()) in
    if rw <> rf then
      Alcotest.failf
        "query %d: warm and fresh contexts disagree — the answer depends on \
         cache history"
        i
  done;
  check bool "warm context answered from its store" true
    (s.Counters.hits_store > 0)

(* ------------- acceleration chain: path-shaped differential -------------

   Query sequences shaped like the executor's: each query conses a new
   branch condition onto an earlier SAT query, both polarities of the
   condition are asked (siblings share their whole prefix), and some
   queries repeat or reorder assertions.  Every query is answered by one
   warm context, where the components of earlier queries come back from
   the id table, by a fresh context, and with reuse off; the three
   answers, models included, must be equal. *)

let gen_branch rng =
  (* like an input-parsing program's branches: most conditions test one
     input byte, a few relate two, so paths split into many components *)
  let var () = Bv.var 8 (820 + Random.State.int rng 10) in
  let const () = Bv.const 8 (Int64.of_int (Random.State.int rng 256)) in
  let binops = [| Bv.Add; Bv.Sub; Bv.And; Bv.Xor |] in
  let cmpops = [| Bv.Eq; Bv.Ne; Bv.Ult; Bv.Ule; Bv.Slt; Bv.Ugt |] in
  let lhs =
    if Random.State.bool rng then var ()
    else
      Bv.binop binops.(Random.State.int rng (Array.length binops)) (var ())
        (const ())
  in
  let rhs = if Random.State.int rng 6 = 0 then var () else const () in
  Bv.cmp cmpops.(Random.State.int rng (Array.length cmpops)) lhs rhs

let test_path_shaped_differential () =
  let rng = Random.State.make [| 0x5a7e |] in
  let warm, s = counted ~cache:true () in
  (* SAT path conditions to extend, a bounded ring of the newest *)
  let pool = Array.make 128 [] and pooled = ref 1 in
  let shuffle q =
    List.map snd
      (List.sort
         (fun (a, _) (b, _) -> Int.compare a b)
         (List.map (fun t -> (Random.State.bits rng, t)) q))
  in
  let queries = ref 0 in
  let ask path =
    let q =
      match Random.State.int rng 6 with
      | 0 -> List.nth path (Random.State.int rng (List.length path)) :: path
      | 1 -> List.rev path
      | 2 -> shuffle path
      | _ -> path
    in
    incr queries;
    let rw = Solver.check warm q in
    let rf = Solver.check (Solver.create ~cache:true ()) q in
    let ro = Solver.check (Solver.create ~cache:false ()) q in
    if rw <> rf || rw <> ro then
      Alcotest.failf "query %d: warm, fresh and reuse-off answers differ on %s"
        !queries
        (String.concat " && " (List.map Bv.to_string q));
    match rw with
    | Solver.Sat m ->
        if not (model_satisfies m q) then
          Alcotest.failf "query %d: the model does not satisfy the query"
            !queries;
        pool.(!pooled mod 128) <- path;
        incr pooled
    | Solver.Unsat -> ()
  in
  for _ = 1 to 600 do
    let parent = pool.(Random.State.int rng (min !pooled 128)) in
    let parent = if List.length parent >= 12 then [] else parent in
    let c = gen_branch rng in
    let siblings = [ c :: parent; Bv.not_ c :: parent ] in
    List.iter ask siblings;
    (* now and then a sibling again, as a later path reaching the same
       branch would: every component, SAT or UNSAT, is a repeat *)
    if Random.State.int rng 4 = 0 then
      ask (List.nth siblings (Random.State.int rng 2))
  done;
  check bool "repeated components answered without a solve" true
    (s.Counters.hits_canon > s.Counters.component_solves);
  check bool "some queries answered entirely by reuse" true
    (s.Counters.cache_hits > 0)

(* ------------- acceleration chain: assume vs check -------------

   Path conditions grown the way the executor grows them: a satisfiable
   parent from a pool is extended by both polarities of a branch
   condition (one of them is a step the model already satisfies, with no
   query), by one of its own conjuncts again, or by a constant.  After
   every [Solver.assume]: [None] iff blast+SAT of the conjunction says
   UNSAT; the model satisfies every conjunct; after a query, the model
   equals [Solver.check]'s for the same conjuncts with reuse off, and the
   query and component counts are [check]'s (a step the model satisfies
   counts nothing).  A path condition rebuilt from its conjuncts, every
   component dirty, answers the next query identically.  Runs with reuse
   on and off. *)

let test_assume_differential () =
  let module Pc = Solver.Pc in
  let run reuse =
    let rng = Random.State.make [| 0xa55e |] in
    let ctx, s = counted ~cache:reuse () in
    let pool = Array.make 128 Pc.empty and pooled = ref 1 in
    let steps = ref 0 and unsat = ref 0 and free = ref 0 in
    let fail fmt =
      Alcotest.failf ("reuse %b, step %d: " ^^ fmt) reuse !steps
    in
    let extend pc c =
      incr steps;
      let conjs = c :: Pc.conjuncts pc in
      let queried =
        (not (Bv.is_const c)) && Bv.eval (Pc.value pc) c <> 1L
      in
      let q0 = s.Counters.queries and k0 = s.Counters.components in
      let r = Solver.assume ctx pc c in
      if (r <> None) <> reference_is_sat conjs then
        fail "assume and blast+SAT disagree on %s"
          (String.concat " && " (List.map Bv.to_string conjs));
      if queried then begin
        let ref_ctx, rs = counted ~cache:false () in
        let expected = Solver.check ref_ctx conjs in
        if s.Counters.queries - q0 <> 1 then
          fail "a query counted %d times" (s.Counters.queries - q0);
        if s.Counters.components - k0 <> rs.Counters.components then
          fail "%d components counted, check counts %d"
            (s.Counters.components - k0) rs.Counters.components;
        match (r, expected) with
        | (Some pc', Solver.Sat m) ->
            if Pc.model pc' <> List.sort compare m then
              fail "the model differs from check's"
        | (None, Solver.Unsat) -> incr unsat
        | _ -> fail "assume and check disagree"
      end
      else begin
        if not (Bv.is_const c) then incr free;
        if s.Counters.queries <> q0 || s.Counters.components <> k0 then
          fail "a step the model satisfies was counted"
      end;
      Option.iter
        (fun pc' ->
          if not (List.tl (Pc.conjuncts pc') == Pc.conjuncts pc) then
            fail "the parent's conjuncts are not the child's tail";
          if not (List.for_all (fun a -> Bv.eval (Pc.value pc') a = 1L) conjs)
          then fail "the model does not satisfy the conjuncts")
        r;
      r
    in
    let view = Option.map Pc.model in
    for _ = 1 to 400 do
      let parent = pool.(Random.State.int rng (min !pooled 128)) in
      let parent =
        if List.length (Pc.conjuncts parent) >= 12 then Pc.empty else parent
      in
      let conjs = Pc.conjuncts parent in
      let cs =
        match Random.State.int rng 8 with
        | 0 when conjs <> [] ->
            [ List.nth conjs (Random.State.int rng (List.length conjs)) ]
        | 1 -> [ (if Random.State.bool rng then Bv.tt else Bv.ff) ]
        | _ ->
            let c = gen_branch rng in
            [ c; Bv.not_ c ]
      in
      List.iter
        (fun c ->
          match extend parent c with
          | Some pc ->
              pool.(!pooled mod 128) <- pc;
              incr pooled
          | None -> ())
        cs;
      (* the same parent rebuilt with every component dirty, in a fresh
         context: the next query's answer must not move *)
      if Random.State.int rng 4 = 0 then begin
        let rebuilt = Pc.rebuild Fun.id parent in
        let c = gen_branch rng in
        List.iter
          (fun c ->
            let fresh = Solver.create ~cache:reuse () in
            if view (Solver.assume ctx parent c)
               <> view (Solver.assume fresh rebuilt c)
            then fail "a rebuilt path condition answers differently")
          [ c; Bv.not_ c ]
      end
    done;
    check bool "some steps were UNSAT" true (!unsat > 0);
    check bool "some steps needed no query" true (!free > 0)
  in
  run true;
  run false

(* ------------- independence partitioning: properties ------------- *)

let sorted_uniq_vars cctx terms =
  List.sort_uniq compare (List.concat_map (Canon.term_vars cctx) terms)

let not_true (t : Bv.t) = t.Bv.node <> Bv.Const 1L

(* the path condition's components partition both the assertion set and
   the variable set: every normalized assertion (constant true pruned)
   lands in exactly one component, and no variable occurs in two
   components *)
let prop_partition_is_partition =
  QCheck2.Test.make
    ~name:"partition: components partition assertions and variables"
    ~count:300
    QCheck2.Gen.(int_bound 0xFFFFFF)
    (fun seed ->
      let rng = Random.State.make [| seed; 77 |] in
      let assertions = gen_assertions rng in
      let cctx = Canon.create () in
      let norm = Canon.normalize cctx (List.filter not_true assertions) in
      let comps = Solver.components assertions in
      let ids l = List.sort compare (List.map (fun (t : Bv.t) -> t.Bv.id) l) in
      if ids (List.concat comps) <> ids norm then
        QCheck2.Test.fail_reportf
          "components lose, duplicate or invent assertions";
      let vsets = List.map (sorted_uniq_vars cctx) comps in
      if List.sort compare (List.concat vsets) <> sorted_uniq_vars cctx norm
      then
        QCheck2.Test.fail_reportf
          "component variable sets are not a partition of the query's \
           variables";
      true)

(* solving components separately agrees with solving the conjunction whole
   (SAT iff every component SAT — the soundness of independence
   partitioning).  On a mismatch, greedily shrink to a minimal failing
   assertion set before reporting. *)
let test_partition_vs_conjunction () =
  let mismatch assertions =
    let whole = reference_is_sat assertions in
    let piecewise =
      List.for_all reference_is_sat (Solver.components assertions)
    in
    whole <> piecewise
  in
  let shrink assertions =
    let rec go set =
      match
        List.find_opt mismatch
          (List.mapi (fun i _ -> List.filteri (fun j _ -> j <> i) set) set)
      with
      | Some smaller -> go smaller
      | None -> set
    in
    go assertions
  in
  let rng = Random.State.make [| 0x9a27 |] in
  for i = 1 to 400 do
    let assertions = gen_assertions rng in
    if mismatch assertions then begin
      let minimal = shrink assertions in
      Alcotest.failf
        "query %d: component-wise verdict disagrees with the conjunction; \
         minimal failing set (%d of %d assertions):\n%s"
        i (List.length minimal)
        (List.length assertions)
        (String.concat "\n" (List.map Bv.to_string minimal))
    end
  done

(* ------------- persistent store ------------- *)

let store_queries () =
  let x = Bv.var 8 710 and y = Bv.var 8 711 in
  [
    [ Bv.cmp Bv.Ugt x (Bv.const 8 200L) ];
    [ Bv.cmp Bv.Ult x (Bv.const 8 5L); Bv.cmp Bv.Ugt x (Bv.const 8 10L) ];
    [ Bv.cmp Bv.Eq (Bv.binop Bv.Add x y) (Bv.const 8 77L) ];
  ]

let test_store_round_trip () =
  Binfile.with_temp_dir "overify_store_test" @@ fun dir ->
  let queries = store_queries () in
  let st1 = Store.load ~dir () in
  check int "store starts cold" 0 (Store.loaded st1);
  let c1 = Solver.create ~cache:true ~store:st1 () in
  let r1 = List.map (Solver.check c1) queries in
  Store.save st1;
  let st2 = Store.load ~dir () in
  check bool "entries survive the round trip" true (Store.loaded st2 > 0);
  let c2, s2 = counted ~cache:true ~store:st2 () in
  let r2 = List.map (Solver.check c2) queries in
  check bool "identical results across runs (verdicts and models)" true
    (r1 = r2);
  check int "no fresh solves on the warm run" 0 s2.Counters.component_solves;
  check bool "answered from the store" true (s2.Counters.hits_store > 0)

(* a store with no directory keeps its entries in memory: saving it
   writes no file, not even into the working directory, and the entries
   still answer *)
let test_store_in_memory_saves_nothing () =
  Binfile.with_temp_dir "overify_store_test" @@ fun dir ->
  let cwd = Sys.getcwd () in
  Sys.chdir dir;
  Fun.protect ~finally:(fun () -> Sys.chdir cwd) @@ fun () ->
  let st = Store.in_memory () in
  let c = Solver.create ~cache:true ~store:st () in
  List.iter (fun q -> ignore (Solver.check c q)) (store_queries ());
  check bool "entries added" true (Store.length st > 0);
  Store.save st;
  check int "save wrote nothing" 0 (Array.length (Sys.readdir dir));
  let c2, s2 = counted ~cache:true ~store:st () in
  List.iter (fun q -> ignore (Solver.check c2 q)) (store_queries ());
  check int "no fresh solves" 0 s2.Counters.component_solves;
  check bool "answered from memory" true (s2.Counters.hits_store > 0)

(* α-equivalent components (same structure, different variables) meet
   only in the store: one context without a store solves both afresh,
   and a context with one answers the second from the first's entry,
   translated through the second query's renaming *)
let test_alpha_equivalent_through_store () =
  let q1 = [ Bv.cmp Bv.Ugt (Bv.var 8 901) (Bv.const 8 200L) ]
  and q2 = [ Bv.cmp Bv.Ugt (Bv.var 8 902) (Bv.const 8 200L) ] in
  let ctx, c = counted ~cache:true () in
  ignore (Solver.check ctx q1);
  ignore (Solver.check ctx q2);
  check int "two fresh solves without a store" 2 c.Counters.component_solves;
  check int "no id-table hits" 0 c.Counters.hits_canon;
  let ctx, c = counted ~cache:true ~store:(Store.in_memory ()) () in
  ignore (Solver.check ctx q1);
  (match Solver.check ctx q2 with
  | Solver.Sat m ->
      check bool "the model binds the second query's variable" true
        (List.mem_assoc 902 m);
      check bool "the model satisfies the second query" true
        (model_satisfies m q2)
  | Solver.Unsat -> Alcotest.fail "x902 >u 200 is sat");
  check int "one fresh solve with a store" 1 c.Counters.component_solves;
  check int "one store hit" 1 c.Counters.hits_store

(* corrupted or version-mismatched store files must load as empty stores —
   a cache starts cold, it never crashes the run or poisons answers *)
let test_store_rejects_invalid () =
  Binfile.with_temp_dir "overify_store_test" @@ fun dir ->
  let st = Store.load ~dir () in
  let c = Solver.create ~cache:true ~store:st () in
  List.iter (fun q -> ignore (Solver.check c q)) (store_queries ());
  Store.save st;
  let file =
    match Array.to_list (Sys.readdir dir) with
    | [ f ] -> Filename.concat dir f
    | l -> Alcotest.failf "expected exactly one store file, got %d" (List.length l)
  in
  (* truncated garbage *)
  Out_channel.with_open_bin file (fun oc -> output_string oc "garbage");
  let st_bad = Store.load ~dir () in
  check int "corrupted file loads as an empty store" 0 (Store.loaded st_bad);
  let c_bad, s_bad = counted ~cache:true ~store:st_bad () in
  (match Solver.check c_bad (List.hd (store_queries ())) with
  | Solver.Sat _ -> ()
  | Solver.Unsat -> Alcotest.fail "x>200 is sat even with a corrupt store");
  check bool "corrupt store produced no hits" true
    (s_bad.Counters.hits_store = 0);
  (* right magic, wrong version *)
  Out_channel.with_open_bin file (fun oc ->
      output_string oc "OVERIFY-SOLVER-STORE";
      output_binary_int oc 999_999);
  let st_v = Store.load ~dir () in
  check int "version mismatch loads as an empty store" 0 (Store.loaded st_v)

(* ------------- answers pinned by solver_digests.tsv -------------

   The solver's models are answers: exit-code witnesses come from them,
   and stores written by earlier builds hold them.  Each row of
   test/solver_digests.tsv is the MD5 of one family of answers, so a
   change to the SAT core, the blaster or the canonical keys that moves
   any answer, model bits included, moves a row.  The oracle row solves
   with reuse off; the engine rows run under the suite's reuse setting
   (OVERIFY_SOLVER_CACHE), and must not move with it. *)

module Engine = Overify_symex.Engine
module Programs = Overify_corpus.Programs
module Costmodel = Overify_opt.Costmodel

let md5 s = Digest.to_hex (Digest.string s)

(* 60 seeded random 3-SAT instances at 4.26 clauses per variable, the
   satisfiability threshold: unlike the corpus's small components they
   restart and learn (28 SAT; 11 to 4,502 conflicts, median 230).
   Literals are drawn independently, so a few clauses carry a duplicate
   or a complementary pair. *)
let sat3_answers () =
  let buf = Buffer.create 8192 in
  for i = 1 to 60 do
    let rng = Random.State.make [| 0x35a7; i |] in
    let nvars = 50 + Random.State.int rng 101 in
    let s = Sat.create () in
    let vars = Array.init nvars (fun _ -> Sat.new_var s) in
    for _ = 1 to Float.to_int (Float.round (4.26 *. float nvars)) do
      Sat.add_clause s
        (Array.init 3 (fun _ ->
             let v = Random.State.int rng nvars in
             let positive = Random.State.bool rng in
             lit vars.(v) positive))
    done;
    if Sat.solve s then begin
      Buffer.add_char buf 'S';
      Array.iter
        (fun v -> Buffer.add_char buf (if Sat.model_value s v then '1' else '0'))
        vars
    end
    else Buffer.add_char buf 'U';
    Buffer.add_char buf '\n'
  done;
  Buffer.contents buf

(* the differential oracle's queries, from its seed *)
let oracle_queries () =
  let rng = Random.State.make [| 0xace5 |] in
  List.init 2_000 (fun _ -> gen_assertions rng)

let render_result = function
  | Solver.Unsat -> "U"
  | Solver.Sat m ->
      "S"
      ^ String.concat ","
          (List.map (fun (v, x) -> Printf.sprintf "%d=%Ld" v x) m)

let oracle_answers queries =
  String.concat "\n"
    (List.map
       (fun q -> render_result (Solver.check (Solver.create ~cache:false ()) q))
       queries)

(* the canonical keys of each query's components, as [Solver.check]
   builds them (constants pruned, deduplicated, partitioned, normalized,
   renamed), sorted so that term ids do not order them *)
let component_keys queries =
  String.concat "\n"
    (List.map
       (fun q ->
         if List.exists (fun (t : Bv.t) -> t.Bv.node = Bv.Const 0L) q then
           "-"
         else
           let cctx = Canon.create () in
           Solver.components q
           |> List.map (fun comp ->
                  (Canon.rename cctx (Canon.normalize cctx comp)).Canon.key)
           |> List.sort compare |> String.concat " ")
       queries)

(* exit codes and bugs, witness inputs included, of one complete run *)
let engine_answers name (level : Costmodel.t) n =
  let p = Option.get (Programs.find name) in
  let m = Overify.compile ~level p.Programs.source in
  let r =
    Engine.run
      ~config:
        { Engine.default_config with
          Engine.input_size = n; timeout = 600.0; searcher = `Dfs }
      m
  in
  if not r.Engine.complete then
    Alcotest.failf "%s %s n=%d: run incomplete" name level.Costmodel.name n;
  String.concat "\n"
    (List.map (fun (input, code) -> Printf.sprintf "%S %Ld" input code)
       r.Engine.exit_codes
    @ List.map
        (fun (b : Engine.bug) ->
          Printf.sprintf "%s %S %s" b.Engine.kind b.Engine.input
            b.Engine.at_function)
        r.Engine.bugs)

let solver_digests_header = "# answers\tmd5"

let test_solver_digests () =
  let queries = oracle_queries () in
  let rows =
    [
      ("sat3", sat3_answers ());
      ("oracle", oracle_answers queries);
      ("keys", component_keys queries);
    ]
  in
  (* [Engine.run] resets the term table: the engine rows come last *)
  let rows =
    rows
    @ List.map
        (fun (name, (level : Costmodel.t), n) ->
          ( Printf.sprintf "%s %s n=%d" name level.Costmodel.name n,
            engine_answers name level n ))
        [ ("cksum", Costmodel.o3, 1); ("factor", Costmodel.o3, 1);
          ("wc", Costmodel.o0, 3) ]
  in
  Pinned.check ~name:"solver_digests" ~header:solver_digests_header ~keys:1
    ~what:"solver answers"
    (List.map (fun (name, answers) -> name ^ "\t" ^ md5 answers) rows)

let () =
  Alcotest.run "solver"
    [
      ( "terms",
        [
          Alcotest.test_case "hash consing" `Quick test_hash_consing;
          Alcotest.test_case "constant folding" `Quick test_const_fold;
          Alcotest.test_case "identities" `Quick test_identities;
          Alcotest.test_case "pow2 strength reduction" `Quick
            test_pow2_strength_reduction;
          Alcotest.test_case "ite" `Quick test_ite_simplify;
          Alcotest.test_case "extract/concat" `Quick test_extract_concat;
          Alcotest.test_case "eval" `Quick test_eval;
          Alcotest.test_case "vars" `Quick test_vars;
          Alcotest.test_case "reset never reuses an id" `Quick
            test_reset_keeps_ids;
        ] );
      ( "sat",
        [
          Alcotest.test_case "trivial" `Quick test_sat_trivial;
          Alcotest.test_case "unsat" `Quick test_sat_unsat;
          Alcotest.test_case "implication chain" `Quick test_sat_chain;
          Alcotest.test_case "pigeonhole" `Quick test_sat_pigeonhole;
          Alcotest.test_case "random vs brute force" `Quick
            test_sat_random_vs_bruteforce;
        ] );
      ( "blasting (qcheck)",
        [
          QCheck_alcotest.to_alcotest prop_solver_vs_bruteforce;
          QCheck_alcotest.to_alcotest prop_model_sound_32;
          QCheck_alcotest.to_alcotest prop_blast_matches_eval;
        ] );
      ( "interface",
        [
          Alcotest.test_case "trivial queries" `Quick test_trivial_queries_no_sat;
          Alcotest.test_case "cache" `Quick test_cache_hits;
          Alcotest.test_case "context isolation" `Quick test_ctx_isolation;
          Alcotest.test_case "alpha-equivalent queries meet in the store"
            `Quick test_alpha_equivalent_through_store;
          Alcotest.test_case "concurrent contexts on 2 domains" `Quick
            test_ctx_concurrent_domains;
        ] );
      ( "acceleration chain",
        [
          Alcotest.test_case "differential oracle (2,000 queries)" `Quick
            test_differential_oracle;
          Alcotest.test_case "path-shaped differential" `Quick
            test_path_shaped_differential;
          Alcotest.test_case "assume vs check differential" `Quick
            test_assume_differential;
          QCheck_alcotest.to_alcotest prop_partition_is_partition;
          Alcotest.test_case "partition vs conjunction (with shrinker)"
            `Quick test_partition_vs_conjunction;
        ] );
      ( "persistent store",
        [
          Alcotest.test_case "round trip across runs" `Quick
            test_store_round_trip;
          Alcotest.test_case "rejects corrupt and wrong-version files" `Quick
            test_store_rejects_invalid;
          Alcotest.test_case "in-memory store saves nothing" `Quick
            test_store_in_memory_saves_nothing;
        ] );
      (* last: the engine rows reset the term table *)
      ( "pinned answers",
        [
          Alcotest.test_case "answers pinned by solver_digests.tsv" `Quick
            test_solver_digests;
        ] );
    ]
