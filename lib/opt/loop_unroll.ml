(** Loop unrolling by peeling, on memory-form IR.

    A counted loop [for (i = C0; i `pred` C1; i += C2)] whose trip count [T]
    is a compile-time constant is peeled [T] times; the residual loop stays
    in place, so the transformation is semantics-preserving {e even if the
    trip-count analysis were wrong} — correctness never depends on the
    analysis, only effectiveness does.  Once mem2reg and folding run, the
    peeled headers' conditions fold to constants, the copies straighten into
    a branch-free line, and the residual loop becomes unreachable.

    [-OVERIFY] "removes loops from the program whenever possible, even if
    this increases the program size" (paper §4); the cost model's
    [unroll_trip_limit]/[unroll_size_limit] encode how far each level goes. *)

module Ir = Overify_ir.Ir
module Cfg = Overify_ir.Cfg
module Loop = Overify_ir.Loop
module Verify = Overify_ir.Verify
module IntSet = Cfg.IntSet

(** Simulate the counted loop to get the exact trip count (handles any
    predicate/step combination, including wrap-around), bounded by [limit]. *)
let simulate ~ty ~init ~bound ~pred ~continue_on ~step ~stepop ~limit =
  let bits = Ir.bits_of_ty ty in
  let rec go i count =
    if count > limit then None
    else
      let cont = Ir.eval_cmp pred bits i bound = continue_on in
      if not cont then Some count
      else
        match Ir.eval_binop stepop bits i step with
        | Some i' -> go i' (count + 1)
        | None -> None
  in
  go (Ir.norm ty init) 0

(** Match the header pattern: [%a = load islot; %c = icmp pred %a, C1] with
    the terminator branching on [%c]. *)
let match_header (blk : Ir.block) safe_slots l =
  match blk.Ir.term with
  | Ir.Cbr (Ir.Reg c, t, e) -> (
      let deftbl = Hashtbl.create 8 in
      List.iter
        (fun i ->
          match Ir.def_of_inst i with
          | Some d -> Hashtbl.replace deftbl d i
          | None -> ())
        blk.Ir.insts;
      match Hashtbl.find_opt deftbl c with
      | Some (Ir.Cmp (_, pred, ty, Ir.Reg a, Ir.Imm (bound, _))) -> (
          match Hashtbl.find_opt deftbl a with
          | Some (Ir.Load (_, lty, Ir.Reg islot))
            when lty = ty && IntSet.mem islot safe_slots ->
              (* which direction continues the loop? *)
              let t_in = Loop.mem l t and e_in = Loop.mem l e in
              if t_in && not e_in then
                Some (islot, ty, pred, bound, true)
              else if e_in && not t_in then
                Some (islot, ty, pred, bound, false)
              else None
          | _ -> None)
      | _ -> None)
  | _ -> None

(** Find the unique in-loop increment [load; add/sub imm; store] of [islot]
    in the latch block, and check no other in-loop store touches it. *)
let match_step (block : int -> Ir.block) (l : Loop.t) islot ty =
  match l.Loop.latches with
  | [ latch ] -> (
      let stores_elsewhere =
        IntSet.exists
          (fun bid ->
            bid <> latch
            && List.exists
                 (function Ir.Store (_, _, Ir.Reg p) -> p = islot | _ -> false)
                 (block bid).Ir.insts)
          l.Loop.blocks
      in
      if stores_elsewhere then None
      else begin
        let lb = block latch in
        let deftbl = Hashtbl.create 8 in
        List.iter
          (fun i ->
            match Ir.def_of_inst i with
            | Some d -> Hashtbl.replace deftbl d i
            | None -> ())
          lb.Ir.insts;
        let found = ref None and count = ref 0 in
        List.iter
          (fun i ->
            match i with
            | Ir.Store (_, Ir.Reg v, Ir.Reg p) when p = islot -> (
                incr count;
                match Hashtbl.find_opt deftbl v with
                | Some (Ir.Bin (_, ((Ir.Add | Ir.Sub) as op), bty, Ir.Reg x, Ir.Imm (step, _)))
                  when bty = ty -> (
                    match Hashtbl.find_opt deftbl x with
                    | Some (Ir.Load (_, _, Ir.Reg p2)) when p2 = islot ->
                        found := Some (op, step)
                    | _ -> ())
                | _ -> ())
            | Ir.Store (_, _, Ir.Reg p) when p = islot -> incr count
            | _ -> ())
          lb.Ir.insts;
        if !count = 1 then !found else None
      end)
  | _ -> None

(** Find the constant initial value: the last store to [islot] in the loop's
    unique outside predecessor block. *)
let match_init (block : int -> Ir.block) preds (l : Loop.t) islot =
  let outside =
    List.filter (fun p -> not (Loop.mem l p)) (Cfg.preds_of preds l.Loop.header)
  in
  match outside with
  | [ p ] -> (
      let last = ref None in
      List.iter
        (fun i ->
          match i with
          | Ir.Store (_, v, Ir.Reg q) when q = islot ->
              last := Some v
          | _ -> ())
        (block p).Ir.insts;
      match !last with
      | Some (Ir.Imm (v, _)) -> Some v
      | _ -> None)
  | _ -> None

(** The trip count of a counted loop small enough to peel in full.  The
    loop's blocks are read through [blocks], the function's
    [Cfg.block_array]. *)
let analyze (cm : Costmodel.t) (blocks : Ir.block option array) preds
    safe_slots (l : Loop.t) : int option =
  let block bid = Option.get blocks.(bid) in
  match match_header (block l.Loop.header) safe_slots l with
  | None -> None
  | Some (islot, ty, pred, bound, continue_on) -> (
      match match_step block l islot ty with
      | None -> None
      | Some (stepop, step) -> (
          match match_init block preds l islot with
          | None -> None
          | Some init -> (
              match
                simulate ~ty ~init ~bound ~pred ~continue_on ~step ~stepop
                  ~limit:cm.Costmodel.unroll_trip_limit
              with
              | Some trip when trip > 0 ->
                  let size =
                    IntSet.fold
                      (fun bid acc -> acc + List.length (block bid).Ir.insts + 1)
                      l.Loop.blocks 0
                  in
                  if size * trip <= cm.Costmodel.unroll_size_limit then Some trip
                  else None
              | _ -> None)))

(** What one application keeps current across its peels, so that it finds
    the loops once instead of after every peel. *)
type nest = {
  fn : Ir.func;
  blocks : Ir.block option array;  (** [Cfg.block_array fn] *)
  preds : int list array;  (** [Cfg.preds fn] *)
  safe : IntSet.t;  (** [Loop_unswitch.non_escaping_slots fn.blocks] *)
  loops : Loop.t list;
      (** [Loop.find fn] in the fields the pass reads: order, header,
          blocks and latches ([preheader], [exiting] and [exits] go stale) *)
}

let nest_of fn =
  {
    fn;
    blocks = Cfg.block_array fn;
    preds = Cfg.preds fn;
    safe = Loop_unswitch.non_escaping_slots fn.Ir.blocks;
    loops = Loop.find fn;
  }

(* paranoid mode: the kept nest must equal one computed from scratch *)
let cross_check n =
  if !Verify.paranoid then begin
    Loop.check_current "unroll"
      (fun l -> (l.Loop.header, IntSet.elements l.Loop.blocks, l.Loop.latches))
      n.fn n.preds n.loops;
    let stale what =
      failwith
        (Printf.sprintf "unroll: kept %s of %s is stale" what n.fn.Ir.fname)
    in
    let fresh = Cfg.block_array n.fn in
    let get a i = if i < Array.length a then a.(i) else None in
    for i = 0 to max (Array.length fresh) (Array.length n.blocks) - 1 do
      if get fresh i <> get n.blocks i then stale (Printf.sprintf "block L%d" i)
    done;
    if
      not
        (IntSet.equal n.safe (Loop_unswitch.non_escaping_slots n.fn.Ir.blocks))
    then stale "non-escaping slot set"
  end

(** Peel [trip] copies of the loop in front of it, keeping the nest
    current: the copies follow every old block, so they are appended to the
    predecessor lists they enter; the loops are found again only when the
    peeled loop holds another loop, whose copies are new loops. *)
let peel (n : nest) (l : Loop.t) ~trip : nest =
  let fn = n.fn in
  let fresh = Ir.Fresh.of_func fn in
  let loop_blocks =
    List.filter (fun (b : Ir.block) -> Loop.mem l b.Ir.bid) fn.Ir.blocks
  in
  let header = l.Loop.header in
  let copies =
    List.init trip (fun _ -> Clone.clone_blocks ~fresh loop_blocks)
  in
  (* wire copy k's back edges to copy k+1's header (or the residual loop) *)
  let headers =
    List.map (fun c -> Hashtbl.find c.Clone.label_map header) copies
  in
  let next_header = Array.of_list (List.tl headers @ [ header ]) in
  let wired =
    List.concat
      (List.mapi
         (fun k (c : Clone.result) ->
           let my_header = List.nth headers k in
           List.map
             (fun (b : Ir.block) ->
               { b with
                 Ir.term = Cfg.redirect_term my_header next_header.(k) b.Ir.term })
             c.Clone.blocks)
         copies)
  in
  (* entry edges now enter the first copy *)
  let first_header = List.nth headers 0 in
  let outside =
    List.filter (fun p -> not (Loop.mem l p)) (Cfg.preds_of n.preds header)
  in
  let enter (b : Ir.block) =
    { b with Ir.term = Cfg.redirect_term header first_header b.Ir.term }
  in
  let blocks =
    List.map
      (fun (b : Ir.block) -> if List.mem b.Ir.bid outside then enter b else b)
      fn.Ir.blocks
  in
  let entry_bid = (Ir.entry fn).Ir.bid in
  if header = entry_bid then begin
    (* keep the entry first: the first peeled header becomes the entry *)
    let first_copy_blocks, rest_copies =
      match copies with
      | c :: _ ->
          let ids = Hashtbl.fold (fun _ v acc -> IntSet.add v acc)
                      c.Clone.label_map IntSet.empty in
          List.partition (fun (b : Ir.block) -> IntSet.mem b.Ir.bid ids) wired
      | [] -> ([], wired)
    in
    (* order: entry copy's header first *)
    let entry_first =
      List.sort
        (fun (a : Ir.block) (b : Ir.block) ->
          if a.Ir.bid = first_header then -1
          else if b.Ir.bid = first_header then 1
          else 0)
        first_copy_blocks
    in
    nest_of
      (Ir.Fresh.commit fresh
         { fn with Ir.blocks = entry_first @ rest_copies @ blocks })
  end
  else begin
    let fn = Ir.Fresh.commit fresh { fn with Ir.blocks = blocks @ wired } in
    let grow a x =
      Array.append a (Array.make (max 0 (fn.Ir.next - Array.length a)) x)
    in
    let table = grow n.blocks None and preds = grow n.preds [] in
    List.iter (fun p -> table.(p) <- Option.map enter table.(p)) outside;
    List.iter (fun (b : Ir.block) -> table.(b.Ir.bid) <- Some b) wired;
    preds.(header) <- List.filter (Loop.mem l) preds.(header);
    preds.(first_header) <- outside;
    (* copy edges, newest first per target *)
    let added = Hashtbl.create 64 in
    List.iter
      (fun (b : Ir.block) ->
        List.iter
          (fun s ->
            if s < Array.length table && table.(s) <> None then
              Hashtbl.replace added s
                (b.Ir.bid
                :: Option.value ~default:[] (Hashtbl.find_opt added s)))
          (Cfg.succs b))
      wired;
    Hashtbl.iter (fun s rev -> preds.(s) <- preds.(s) @ List.rev rev) added;
    let holds_a_loop =
      List.exists
        (fun (m : Loop.t) -> m.Loop.header <> header && Loop.mem l m.Loop.header)
        n.loops
    in
    let loops =
      if holds_a_loop then Loop.find fn
      else
        (* a loop around [l] holds the copies; those that branch to its
           header are latches, the newest first *)
        let ids =
          IntSet.of_list (List.map (fun (b : Ir.block) -> b.Ir.bid) wired)
        in
        List.map
          (fun (m : Loop.t) ->
            if m.Loop.header = header || not (Loop.mem m header) then m
            else
              {
                m with
                Loop.blocks = IntSet.union m.Loop.blocks ids;
                latches =
                  List.rev_append
                    (List.filter_map
                       (fun (b : Ir.block) ->
                         if List.mem m.Loop.header (Cfg.succs b) then
                           Some b.Ir.bid
                         else None)
                       wired)
                    m.Loop.latches;
              })
          n.loops
    in
    {
      fn;
      blocks = table;
      preds;
      safe = IntSet.union n.safe (Loop_unswitch.non_escaping_slots wired);
      loops;
    }
  end

let run (cm : Costmodel.t) (stats : Stats.t) (fn : Ir.func) : Ir.func * bool =
  (* memory form only; see Loop_unswitch.run *)
  if cm.Costmodel.unroll_trip_limit <= 0 || Loop_unswitch.has_phis fn then
    (fn, false)
  else begin
    let changed = ref false in
    let rec go n budget =
      if budget = 0 then n.fn
      else
        let candidate =
          List.find_map
            (fun l ->
              Option.map (fun trip -> (l, trip))
                (analyze cm n.blocks n.preds n.safe l))
            n.loops
        in
        match candidate with
        | Some (l, trip) ->
            changed := true;
            stats.Stats.loops_unrolled <- stats.Stats.loops_unrolled + 1;
            let n = peel n l ~trip in
            cross_check n;
            go n (budget - 1)
        | None -> n.fn
    in
    let fn = go (nest_of fn) 16 in
    (fn, !changed)
  end
