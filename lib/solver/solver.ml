(** Query interface over bit-blasting + CDCL, behind a layered acceleration
    chain (KLEE's counterpart is its solver chain: simplification,
    independence, counterexample cache, then STP; ours adds Green-style
    canonical keys for an optional persistent cross-run store).

    Layer order for {!check} (DESIGN.md, "Solver acceleration"):

    {ol
    {- constant pruning (smart constructors already folded constants);}
    {- independence partitioning ({!Canon.partition}) of the deduplicated
       assertions: connected components over shared variables are
       answered separately — on the engine's queries, every component
       except the one touching the new branch condition was already
       answered for the parent state;}
    {- per-component id table, keyed by the component's sorted
       hash-consed term-id set: a hit returns the stored answer with no
       digest sort, renaming or string key, so a query whose components
       were all answered before costs about a hash lookup per component;}
    {- on a miss, canonicalization of the component: a structural sort
       ({!Canon.normalize}), so every permutation of one assertion set
       yields one answer, and the α-renamed serialization
       ({!Canon.rename}), under which structurally equal components share
       one key even across different variable ids;}
    {- persistent store ({!Store}, optional), looked up by that key:
       canonical verdicts reused across contexts, runs and processes;}
    {- fresh bit-blast + SAT of the component (counted in
       [component_solves]), published to the store.}}

    Components are answered in the order of their least member under
    {!Canon.compare_terms} — the order the canonical list of the whole
    query would give them — and the first UNSAT one decides.

    All mutable solver state lives in an explicit {!ctx}.  Contexts are
    cheap to create and deliberately {e not} thread-safe: the parallel
    exploration engine gives every worker domain its own context (the
    shared {!Store.t} has its own lock).

    Determinism contract: the answer to a query — including the satisfying
    model — is a pure function of the assertion {e set}, never of cache
    history or assertion order.  A fresh solve canonicalizes first, so a
    hit at any layer returns exactly what the fresh solve would have: a
    store hit translates a canonical-space model through the current
    renaming, which is the fresh answer because bit-blasting is
    equivariant under α-renaming (identical CNF, identical deterministic
    SAT run).  The id table stores exactly what the canonical path
    returned, and a term id names one term for the life of the process
    ([Bv] never hands an id out twice), so it is memoization too.
    Consequently caching may be disabled ([OVERIFY_SOLVER_CACHE=0] or
    [create ~cache:false]) without changing any result: only the hit
    counters and solve counts move. *)

type result =
  | Unsat
  | Sat of (int * int64) list  (** satisfying assignment: (var id, value) *)

exception Timeout = Sat.Timeout

(** One answered component: its least member under {!Canon.compare_terms}
    (which orders the components of a query) and the answer the canonical
    path returned for it. *)
type ientry = { least : Bv.t; answer : result }

(** Sorted term-id sets.  The hash reads every id: the polymorphic hash
    reads only a bounded prefix, and components share long prefixes. *)
module Ids = Hashtbl.Make (struct
  type t = int array

  let equal a b =
    Array.length a = Array.length b && Array.for_all2 Int.equal a b

  let hash ids =
    Array.fold_left
      (fun h id ->
        let h = (h + id) * 0x3f58476d1ce4e5b9 in
        h lxor (h lsr 31))
      (Array.length ids) ids
    land max_int
end)

module Counters = Overify_obs.Obs.Counters

type ctx = {
  counters : Counters.t;
      (** the owner's cost counters: [queries], [cache_hits] (queries
          answered without any blasting), [solver_time] (seconds in
          queries that blasted), [components], [component_solves] (fresh
          blast + SAT runs — what the chain exists to avoid),
          [hits_canon] (id table) and [hits_store] *)
  itbl : ientry Ids.t;
      (** id table: a component's sorted term-id set -> its answer *)
  canon : Canon.ctx;  (** digest/variable-set memos *)
  reuse : bool;
      (** reuse layers enabled?  [false] keeps canonicalization and
          partitioning (they define the result) but re-solves every
          component *)
  store : Store.t option;
  faults : Overify_fault.Fault.t option;
      (** injected-fault schedule; a scheduled [timeout@N] makes the N-th
          query raise {!Timeout} before touching any cache layer *)
  deadline : float option;
      (** wall-clock deadline honoured by [check]; long-running
          blasting/SAT work raises {!Timeout} past it *)
  cancel : Overify_fault.Cancel.t option;
      (** cooperative cancellation token, polled at the top of every
          query (the serve daemon threads the request's token here so a
          past-deadline or watchdog-cancelled job stops before its next
          solve); also what an injected [stall@N] query blocks on *)
  hist : Overify_obs.Obs.Hist.t option;
      (** per-query blast+SAT latency histogram; observed only on real
          solves (queries answered from cache cost no solver time).
          [None] (the default) records nothing. *)
  span : Overify_obs.Obs.Span.t option;
      (** parent span for per-query solve spans: every real solve emits a
          one-shot ["solver.check"] child into the flight ring (and trace
          sink), so a request's span tree reaches individual queries.
          [None] (the default) emits nothing. *)
}

let env_cache_default () =
  match Sys.getenv_opt "OVERIFY_SOLVER_CACHE" with
  | Some "0" -> false
  | _ -> true

let create ?(counters = Counters.create ()) ?deadline ?cancel ?hist ?span
    ?cache ?store ?faults () =
  {
    counters;
    itbl = Ids.create 1024;
    canon = Canon.create ();
    reuse = (match cache with Some b -> b | None -> env_cache_default ());
    store;
    faults;
    deadline;
    cancel;
    hist;
    span;
  }

(** Charge one real (uncached) solve to the counters, the latency
    histogram and the enclosing span, whose one-shot ["solver.check"]
    child reaches the flight ring and — when tracing — the trace sink.
    Also called on the timeout path so attributed time stays consistent
    with [solver_time]. *)
let charge_solve ctx t0 ~timed_out =
  let dt = Unix.gettimeofday () -. t0 in
  ctx.counters.solver_time <- ctx.counters.solver_time +. dt;
  (match ctx.hist with
  | Some h -> Overify_obs.Obs.Hist.observe h dt
  | None -> ());
  match ctx.span with
  | Some parent ->
      Overify_obs.Obs.Span.emit ~parent ~ts:t0 ~dur:dt
        ~counters:
          (("solver_time", dt)
          :: (if timed_out then [ ("timed_out", 1.0) ] else []))
        "solver.check"
  | None -> ()

(** Blast + SAT one component (already in canonical order) and return its
    verdict with the model in canonical variable space. *)
let solve_component ctx (comp : Bv.t list) (renamed : Canon.renamed) :
    Store.entry =
  ctx.counters.component_solves <- ctx.counters.component_solves + 1;
  let bctx = Blast.create ?deadline:ctx.deadline () in
  List.iter (Blast.assert_true bctx) comp;
  if not (Sat.solve ?deadline:ctx.deadline bctx.Blast.sat) then Store.E_unsat
  else
    Store.E_sat
      (Array.map
         (fun v ->
           match Blast.model_of_var bctx v with Some x -> x | None -> 0L)
         renamed.Canon.cvars)

(** One id-table miss: the attached store when reuse is on, else a fresh
    solve.  [comp] is the component in canonical order.  A store hit
    returns exactly what [solve_component] would (see the determinism
    contract above), so the store is pure memoization.  [fresh] is
    incremented when blasting actually happened. *)
let check_component ctx ~fresh (comp : Bv.t list) : result =
  let renamed = Canon.rename ctx.canon comp in
  let key = renamed.Canon.key in
  let stored =
    if ctx.reuse then Option.bind ctx.store (fun st -> Store.find st key)
    else None
  in
  let entry =
    match stored with
    | Some ((Store.E_unsat | Store.E_sat _) as entry) ->
        ctx.counters.hits_store <- ctx.counters.hits_store + 1;
        entry
    (* E_blob entries live under namespaced client keys (never a
       canonical component key); finding one here means a key collision
       we must treat as a miss, not a verdict *)
    | Some (Store.E_blob _) | None ->
        let entry = solve_component ctx comp renamed in
        incr fresh;
        (* publish to an attached store even with reuse off: the store is
           a cross-run artifact, not an in-run reuse layer *)
        Option.iter (fun st -> Store.add st key entry) ctx.store;
        entry
  in
  match entry with
  | Store.E_unsat -> Unsat
  | Store.E_sat values -> Sat (Canon.model_of_canon renamed values)
  | Store.E_blob _ -> assert false (* neither branch above yields one *)

(** An injected stuck query ([stall@N]): blocks polling only the explicit
    cancellation flag — deliberately ignoring the solver deadline, which
    is what makes it a wedge the engine's own budgets cannot escape —
    until an external party (the serve watchdog) cancels the token.
    Without a token attached nothing could ever free it, so it degrades
    to an ordinary {!Timeout} instead of hanging the process. *)
let stall ctx =
  match ctx.cancel with
  | None -> raise Timeout
  | Some c ->
      while not (Overify_fault.Cancel.cancelled c) do
        Unix.sleepf 0.005
      done;
      raise (Overify_fault.Cancel.Cancelled (Overify_fault.Cancel.reason c))

(** Check satisfiability of the conjunction of width-1 terms. *)
let check (ctx : ctx) (assertions : Bv.t list) : result =
  let counters = ctx.counters in
  counters.queries <- counters.queries + 1;
  (* cooperative cancellation point: every query starts with a token
     check (deadline-aware), so a cancelled job never begins another
     solve *)
  Overify_fault.Cancel.check ctx.cancel;
  (* injected solver timeout: fires before any cache layer, so a faulted
     query costs its caller a path regardless of warm caches *)
  if Overify_fault.Fault.fire ctx.faults Overify_fault.Fault.Solver_timeout then
    raise Timeout;
  if Overify_fault.Fault.fire ctx.faults Overify_fault.Fault.Solver_stall then
    stall ctx;
  (* constant-prune: smart constructors already folded constants *)
  let assertions =
    List.filter (fun (t : Bv.t) -> t.Bv.node <> Bv.Const 1L) assertions
  in
  if List.exists (fun (t : Bv.t) -> t.Bv.node = Bv.Const 0L) assertions then
    Unsat
  else if assertions = [] then Sat []
  else begin
    let t0 = Unix.gettimeofday () in
    (match ctx.deadline with
    | Some d when t0 > d -> raise Timeout
    | _ -> ());
    (* deduplicate by term id and partition; members keep ascending id
       order, so a component's member ids are its sorted id set *)
    let comps =
      Canon.partition ctx.canon
        (List.sort_uniq
           (fun (a : Bv.t) (b : Bv.t) -> Int.compare a.Bv.id b.Bv.id)
           assertions)
    in
    counters.components <- counters.components + List.length comps;
    (* components in the order of their least members; an id-table hit
       carries its least member, a miss is put in canonical order now,
       whose head is its least member *)
    let ordered =
      List.sort
        (fun (a, _) (b, _) -> Canon.compare_terms ctx.canon a b)
        (List.map
           (fun comp ->
             let ids =
               Array.of_list (List.map (fun (t : Bv.t) -> t.Bv.id) comp)
             in
             match if ctx.reuse then Ids.find_opt ctx.itbl ids else None with
             | Some e -> (e.least, Either.Left e.answer)
             | None ->
                 let comp = Canon.normalize ctx.canon comp in
                 (List.hd comp, Either.Right (ids, comp)))
           comps)
    in
    let fresh = ref 0 in
    let r =
      try
        (* first UNSAT component decides; models concatenate in
           component order *)
        let rec go acc = function
          | [] -> Sat (List.concat (List.rev acc))
          | (least, looked) :: rest -> (
              let answer =
                match looked with
                | Either.Left answer ->
                    counters.hits_canon <- counters.hits_canon + 1;
                    answer
                | Either.Right (ids, comp) ->
                    let answer = check_component ctx ~fresh comp in
                    if ctx.reuse then
                      Ids.replace ctx.itbl ids { least; answer };
                    answer
              in
              match answer with
              | Unsat -> Unsat
              | Sat m -> go (m :: acc) rest)
        in
        go [] ordered
      with Timeout ->
        charge_solve ctx t0 ~timed_out:true;
        raise Timeout
    in
    if !fresh > 0 then charge_solve ctx t0 ~timed_out:false
    else counters.cache_hits <- counters.cache_hits + 1;
    r
  end

(** Model lookup with default 0 (unconstrained variables may take any value;
    0 is what the model extraction produces for absent bits). *)
let model_value model id =
  match List.assoc_opt id model with Some v -> v | None -> 0L
