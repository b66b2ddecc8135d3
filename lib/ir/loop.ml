(** Natural-loop detection.

    A back edge is an edge [u -> h] where [h] dominates [u]; the natural loop
    of that edge is [h] plus every block that can reach [u] without passing
    through [h].  Loops sharing a header are merged, as in LLVM's LoopInfo. *)

module IntSet = Cfg.IntSet

type t = {
  header : int;
  latches : int list;       (** sources of back edges into [header] *)
  blocks : IntSet.t;        (** includes the header *)
  exiting : int list;       (** blocks inside with a successor outside *)
  exits : int list;         (** blocks outside with a predecessor inside *)
  preheader : int option;   (** unique out-of-loop predecessor of the header,
                                if it has the header as its only successor *)
}

let mem l bid = IntSet.mem bid l.blocks

(** All natural loops of [fn], ordered by header RPO (outermost first is
    not guaranteed). *)
let find (fn : Ir.func) : t list =
  let dom = Dom.compute fn in
  let preds = Cfg.preds fn in
  let blocks = Cfg.block_array fn in
  (* back edges u -> h (h dominates u) from reachable u; latches in
     reverse block order *)
  let latches = Array.make (Array.length blocks) [] in
  List.iter
    (fun (b : Ir.block) ->
      if Dom.rpo_index dom b.bid <> None then
        List.iter
          (fun s ->
            if Dom.dominates dom s b.bid then latches.(s) <- b.bid :: latches.(s))
          (Cfg.succs b))
    fn.blocks;
  (* [stamp.(l) = h]: l is in the loop headed by h *)
  let stamp = Array.make (Array.length blocks) (-1) in
  let loop_of header latches =
    (* blocks: reverse reachability from the latches, stopping at the
       header; unreachable predecessors count *)
    stamp.(header) <- header;
    let body = ref [ header ] and work = ref [] in
    let visit l =
      if stamp.(l) <> header then begin
        stamp.(l) <- header;
        body := l :: !body;
        work := l :: !work
      end
    in
    List.iter visit latches;
    while !work <> [] do
      match !work with
      | l :: rest ->
          work := rest;
          List.iter visit preds.(l)
      | [] -> ()
    done;
    let inside l = stamp.(l) = header in
    let blocks_set = IntSet.of_list !body in
    let exiting = ref [] and exits = ref IntSet.empty in
    IntSet.iter
      (fun bid ->
        match blocks.(bid) with
        | None -> ()
        | Some b ->
            let outside = List.filter (fun s -> not (inside s)) (Cfg.succs b) in
            if outside <> [] then begin
              exiting := bid :: !exiting;
              List.iter (fun s -> exits := IntSet.add s !exits) outside
            end)
      blocks_set;
    let preheader =
      match List.filter (fun p -> not (inside p)) preds.(header) with
      | [ p ] -> (
          match blocks.(p) with
          | Some pb when Cfg.succs pb = [ header ] -> Some p
          | _ -> None)
      | _ -> None
    in
    {
      header;
      latches;
      blocks = blocks_set;
      exiting = List.rev !exiting;
      exits = IntSet.elements !exits;
      preheader;
    }
  in
  let loops =
    List.filter_map
      (fun (b : Ir.block) ->
        match latches.(b.bid) with
        | [] -> None
        | ls ->
            latches.(b.bid) <- [];
            Some (loop_of b.bid ls))
      fn.blocks
  in
  (* order by header RPO index for determinism *)
  let idx l = Option.get (Dom.rpo_index dom l.header) in
  List.sort (fun a b -> compare (idx a) (idx b)) loops

(** Loop-nesting depth of each block (0 = not in any loop). *)
let depth_map (fn : Ir.func) : (int, int) Hashtbl.t =
  let loops = find fn in
  let tbl = Hashtbl.create 16 in
  List.iter (fun (b : Ir.block) -> Hashtbl.replace tbl b.bid 0) fn.blocks;
  List.iter
    (fun l ->
      IntSet.iter
        (fun bid ->
          Hashtbl.replace tbl bid
            (1 + (try Hashtbl.find tbl bid with Not_found -> 0)))
        l.blocks)
    loops;
  tbl
