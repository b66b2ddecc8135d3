(** Query interface over bit-blasting + CDCL, behind a layered acceleration
    chain (KLEE's counterpart is its solver chain: simplification,
    independence, counterexample cache, then STP; ours adds Green-style
    canonical keys for an optional persistent cross-run store).

    Layer order (DESIGN.md, "Solver acceleration"):

    {ol
    {- constant pruning (smart constructors already folded constants);}
    {- independence: a path condition ({!Pc.t}) keeps its conjuncts in
       variable-disjoint components, merged as conjuncts arrive, with a
       model and one clean bit per component.  {!assume} answers only the
       new conjunct's component and the components the model satisfied
       without a query (dirty ones); a clean component's model values
       already are its answer.  One-shot {!check} builds the same
       components from its assertion set, all dirty;}
    {- per-component id table, keyed by the component's sorted
       hash-consed term-id set: a hit returns the stored answer with no
       digest sort, renaming or string key;}
    {- on a miss, canonicalization of the component: a structural sort
       ({!Canon.normalize}), so every permutation of one assertion set
       yields one answer, and the α-renamed serialization
       ({!Canon.rename}), under which structurally equal components share
       one key even across different variable ids;}
    {- persistent store ({!Store}, optional), looked up by that key:
       canonical verdicts reused across contexts, runs and processes;}
    {- fresh bit-blast + SAT of the component (counted in
       [component_solves]), published to the store.}}

    {!check} answers components in the order of their least member under
    {!Canon.compare_terms} — the order the canonical list of the whole
    query would give them — and the first UNSAT one decides.  {!assume}
    answers the new conjunct's component first: the rest of the path is
    satisfiable, so that component alone decides.

    All mutable solver state lives in an explicit {!ctx}.  Contexts are
    cheap to create and deliberately {e not} thread-safe: the parallel
    exploration engine gives every worker domain its own context (the
    shared {!Store.t} has its own lock).  A path condition holds no
    context state, so states move between workers.

    Determinism contract: the answer to a query — including the satisfying
    model — is a pure function of the assertion {e set}, never of cache
    history or assertion order.  A fresh solve canonicalizes first, so a
    hit at any layer returns exactly what the fresh solve would have: a
    store hit translates a canonical-space model through the current
    renaming, which is the fresh answer because bit-blasting is
    equivariant under α-renaming (identical CNF, identical deterministic
    SAT run).  The id table stores exactly what the canonical path
    returned, and a term id names one term for the life of the process
    ([Bv] never hands an id out twice), so it is memoization too.  A
    clean component is memoization of the same kind: its member set has
    not changed since it was answered, so re-answering it would return
    the values the model holds.  Consequently caching may be disabled
    ([OVERIFY_SOLVER_CACHE=0] or [create ~cache:false]) without changing
    any result: only the hit counters and solve counts move. *)

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
module IMap = Map.Make (Int)

(* ---------------- path conditions ---------------- *)

(** One variable-disjoint component of a path condition. *)
type comp = {
  members : Bv.t list;
      (** descending term id, no duplicates: a conjunct newer than every
          member is consed onto them, sharing the list *)
  cvars : int list;     (** the members' variables, ascending *)
  clean : bool;
      (** the model's values on [cvars] are this component's answer *)
}

module Pc = struct
  type t = {
    conjuncts : Bv.t list;
    comps : comp IMap.t;
        (** by key: one of the component's variables, or [-1 - id] for a
            variable-free member (variable ids are non-negative) *)
    owner : int IMap.t;  (** variable -> key of its component *)
    model : int64 IMap.t;  (** satisfies every conjunct *)
  }

  let empty =
    {
      conjuncts = [];
      comps = IMap.empty;
      owner = IMap.empty;
      model = IMap.empty;
    }

  let conjuncts pc = pc.conjuncts

  let value pc v =
    match IMap.find_opt v pc.model with Some x -> x | None -> 0L

  let model pc = IMap.bindings pc.model

  (* duplicate-free union of two lists sorted by [cmp] *)
  let rec union cmp a b =
    match (a, b) with
    | ([], l) | (l, []) -> l
    | (x :: a', y :: b') ->
        let k = cmp x y in
        if k < 0 then x :: union cmp a' b
        else if k > 0 then y :: union cmp a b'
        else x :: union cmp a' b'

  let newest_first (a : Bv.t) (b : Bv.t) = Int.compare b.Bv.id a.Bv.id

  (** [pc]'s components with [c] merged into the ones its variables
      ([vars_of c]) touch: one dirty component, whose key is returned.
      A conjunct already present changes nothing.  The conjunct list is
      the caller's. *)
  let merge vars_of pc (c : Bv.t) =
    match vars_of c with
    | [] ->
        let key = -1 - c.Bv.id in
        if IMap.mem key pc.comps then (pc, key)
        else
          let comp = { members = [ c ]; cvars = []; clean = false } in
          ({ pc with comps = IMap.add key comp pc.comps }, key)
    | v0 :: _ as vs -> (
        let keys =
          List.sort_uniq Int.compare
            (List.filter_map (fun v -> IMap.find_opt v pc.owner) vs)
        in
        let touched = List.map (fun k -> IMap.find k pc.comps) keys in
        match (keys, touched) with
        | ([ k ], [ comp ]) when List.memq c comp.members -> (pc, k)
        | _ ->
            let key = match keys with k :: _ -> k | [] -> v0 in
            let members =
              List.fold_left (fun acc t -> union newest_first acc t.members)
                [ c ] touched
            and cvars =
              List.fold_left (fun acc t -> union Int.compare acc t.cvars) vs
                touched
            in
            let comps =
              List.fold_left (fun m k -> IMap.remove k m) pc.comps keys
            and owner =
              List.fold_left (fun o v -> IMap.add v key o) pc.owner cvars
            in
            let comp = { members; cvars; clean = false } in
            ({ pc with comps = IMap.add key comp comps; owner }, key))

  (** [pc]'s components with every term of [terms] but the constant
      true merged in; the conjunct list is the caller's *)
  let merge_all vars_of pc terms =
    List.fold_left
      (fun pc (c : Bv.t) ->
        match c.Bv.node with
        | Bv.Const 1L -> pc
        | _ -> fst (merge vars_of pc c))
      pc terms

  let rebuild f pc =
    let conjuncts = List.map f pc.conjuncts in
    let vars_of = Canon.term_vars (Canon.create ()) in
    { (merge_all vars_of { empty with model = pc.model } conjuncts) with
      conjuncts }
end

(* the members of each component of an assertion set *)
let partition canon assertions =
  let pc = Pc.merge_all (Canon.term_vars canon) Pc.empty assertions in
  List.map (fun (_, comp) -> comp.members) (IMap.bindings pc.Pc.comps)

let components assertions = partition (Canon.create ()) assertions

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
          component, clean ones included *)
  store : Store.t option;
  faults : Overify_fault.Fault.t option;
      (** injected-fault schedule; a scheduled [timeout@N] makes the N-th
          query raise {!Timeout} before touching any cache layer *)
  deadline : float option;
      (** wall-clock deadline honoured by every query; long-running
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

(** The points every query passes first: it is counted, a cancelled job
    stops here, and an injected timeout or stall fires before any cache
    layer, so a faulted query costs its caller a path regardless of warm
    caches. *)
let begin_query ctx =
  ctx.counters.queries <- ctx.counters.queries + 1;
  Overify_fault.Cancel.check ctx.cancel;
  if Overify_fault.Fault.fire ctx.faults Overify_fault.Fault.Solver_timeout then
    raise Timeout;
  if Overify_fault.Fault.fire ctx.faults Overify_fault.Fault.Solver_stall then
    stall ctx

(** A query's timed part: begun past the deadline, it does no work;
    otherwise [body fresh] runs (incrementing [fresh] per blasting
    component) and the query is charged: solver time if it blasted, a
    cache hit if not. *)
let timed ctx body =
  let t0 = Unix.gettimeofday () in
  (match ctx.deadline with Some d when t0 > d -> raise Timeout | _ -> ());
  let fresh = ref 0 in
  let r =
    try body fresh
    with Timeout ->
      charge_solve ctx t0 ~timed_out:true;
      raise Timeout
  in
  if !fresh > 0 then charge_solve ctx t0 ~timed_out:false
  else ctx.counters.cache_hits <- ctx.counters.cache_hits + 1;
  r

let ids_of members =
  Array.of_list (List.map (fun (t : Bv.t) -> t.Bv.id) members)

(** The id table's entry for a component, if reuse is on and it has
    one. *)
let lookup ctx members =
  if ctx.reuse then Ids.find_opt ctx.itbl (ids_of members) else None

(** Answer a component the id table missed: [norm] is its members in
    canonical order, whose head is its least member. *)
let answer_miss ctx ~fresh members norm =
  let e = { least = List.hd norm; answer = check_component ctx ~fresh norm } in
  if ctx.reuse then Ids.replace ctx.itbl (ids_of members) e;
  e.answer

(** Answer one component through the id table and the canonical chain. *)
let answer ctx ~fresh members =
  match lookup ctx members with
  | Some e ->
      ctx.counters.hits_canon <- ctx.counters.hits_canon + 1;
      e.answer
  | None -> answer_miss ctx ~fresh members (Canon.normalize ctx.canon members)

(** Check satisfiability of the conjunction of width-1 terms. *)
let check (ctx : ctx) (assertions : Bv.t list) : result =
  begin_query ctx;
  (* constant-prune: smart constructors already folded constants *)
  let assertions =
    List.filter (fun (t : Bv.t) -> t.Bv.node <> Bv.Const 1L) assertions
  in
  if List.exists (fun (t : Bv.t) -> t.Bv.node = Bv.Const 0L) assertions then
    Unsat
  else if assertions = [] then Sat []
  else
    timed ctx (fun fresh ->
        (* the path condition's components, every one dirty *)
        let comps = partition ctx.canon assertions in
        let counters = ctx.counters in
        counters.components <- counters.components + List.length comps;
        (* components in the order of their least members; an id-table
           hit carries its least member, a miss is put in canonical order
           now, whose head is its least member *)
        let ordered =
          List.sort
            (fun (a, _) (b, _) -> Canon.compare_terms ctx.canon a b)
            (List.map
               (fun members ->
                 match lookup ctx members with
                 | Some e -> (e.least, Either.Left e.answer)
                 | None ->
                     let norm = Canon.normalize ctx.canon members in
                     (List.hd norm, Either.Right (members, norm)))
               comps)
        in
        (* first UNSAT component decides; models concatenate in
           component order *)
        let rec go acc = function
          | [] -> Sat (List.concat (List.rev acc))
          | (_, looked) :: rest -> (
              let answer =
                match looked with
                | Either.Left answer ->
                    counters.hits_canon <- counters.hits_canon + 1;
                    answer
                | Either.Right (members, norm) ->
                    answer_miss ctx ~fresh members norm
              in
              match answer with Unsat -> Unsat | Sat m -> go (m :: acc) rest)
        in
        go [] ordered)

(* a component's answer written over the model's values *)
let splice model m = List.fold_left (fun acc (v, x) -> IMap.add v x acc) model m

(** Constrain [pc] by [c].  The model satisfying [c] already costs no
    query; otherwise [c]'s component decides, and the dirty components
    (all of them with reuse off) are answered and spliced in. *)
let assume (ctx : ctx) (pc : Pc.t) (c : Bv.t) : Pc.t option =
  let conjuncts = c :: pc.Pc.conjuncts in
  match c.Bv.node with
  | Bv.Const 1L -> Some { pc with Pc.conjuncts }
  | Bv.Const 0L -> None
  | _ when Bv.eval (Pc.value pc) c = 1L ->
      let (pc, _) = Pc.merge (Canon.term_vars ctx.canon) pc c in
      Some { pc with Pc.conjuncts }
  | _ ->
      begin_query ctx;
      timed ctx (fun fresh ->
          let (pc, key) = Pc.merge (Canon.term_vars ctx.canon) pc c in
          let counters = ctx.counters in
          counters.components <-
            counters.components + IMap.cardinal pc.Pc.comps;
          let answered k comp m (comps, model) =
            (IMap.add k { comp with clean = true } comps, splice model m)
          in
          let comp = IMap.find key pc.Pc.comps in
          match answer ctx ~fresh comp.members with
          | Unsat -> None
          | Sat m ->
              let other k comp acc =
                match acc with
                | Some _ when k = key -> acc
                | Some _ when comp.clean && ctx.reuse ->
                    (* unchanged since it was answered: the model holds
                       what the id table would return *)
                    counters.hits_canon <- counters.hits_canon + 1;
                    acc
                | Some acc -> (
                    match answer ctx ~fresh comp.members with
                    | Sat m -> Some (answered k comp m acc)
                    | Unsat ->
                        (* the rest of a satisfiable path: unreachable
                           unless a layer is unsound *)
                        None)
                | None -> None
              in
              IMap.fold other pc.Pc.comps
                (Some (answered key comp m (pc.Pc.comps, pc.Pc.model)))
              |> Option.map (fun (comps, model) ->
                     { pc with Pc.conjuncts; comps; model }))

(** Model lookup with default 0 (unconstrained variables may take any value;
    0 is what the model extraction produces for absent bits). *)
let model_value model id =
  match List.assoc_opt id model with Some v -> v | None -> 0L
