(** Dominator tree and dominance frontiers, computed with the iterative
    algorithm of Cooper, Harvey and Kennedy ("A simple, fast dominance
    algorithm") on arrays indexed by reverse-postorder position. *)

module IntSet = Cfg.IntSet

type t = {
  order : int array;          (** RPO position -> label *)
  index : int array;          (** label -> RPO position; -1 if unreachable *)
  idom : int array;           (** RPO position of the immediate dominator;
                                  the entry is its own, -1 outside the tree *)
  children : int list array;  (** labels, in reverse RPO *)
  tin : int array;            (** Euler-tour entry time; 0 outside the tree *)
  tout : int array;           (** … exit time: O(1) dominance queries *)
}

let compute (fn : Ir.func) : t =
  let blocks = Cfg.block_array fn in
  let order = Array.of_list (Cfg.rpo_of_array blocks (Ir.entry fn).bid) in
  let n = Array.length order in
  let index = Array.make (Array.length blocks) (-1) in
  Array.iteri (fun i bid -> index.(bid) <- i) order;
  (* reachable predecessors, as RPO positions; a branch target without a
     block gets none, so it stays outside the tree *)
  let rpreds = Array.make n [] in
  Array.iteri
    (fun i bid ->
      match blocks.(bid) with
      | Some b ->
          List.iter
            (fun s ->
              match blocks.(s) with
              | Some _ -> rpreds.(index.(s)) <- i :: rpreds.(index.(s))
              | None -> ())
            (Cfg.succs b)
      | None -> ())
    order;
  let idom = Array.make n (-1) in
  idom.(0) <- 0;
  let intersect a b =
    let a = ref a and b = ref b in
    while !a <> !b do
      while !a > !b do a := idom.(!a) done;
      while !b > !a do b := idom.(!b) done
    done;
    !a
  in
  let changed = ref true in
  while !changed do
    changed := false;
    for i = 1 to n - 1 do
      let new_idom =
        List.fold_left
          (fun acc p ->
            if idom.(p) < 0 then acc else if acc < 0 then p else intersect acc p)
          (-1) rpreds.(i)
      in
      if new_idom >= 0 && idom.(i) <> new_idom then begin
        idom.(i) <- new_idom;
        changed := true
      end
    done
  done;
  let children = Array.make n [] in
  for i = 1 to n - 1 do
    let p = idom.(i) in
    if p >= 0 then children.(p) <- order.(i) :: children.(p)
  done;
  (* Euler-tour numbering of the dominator tree, children in list order;
     the tree can be thousands deep after heavy peeling, so use an explicit
     stack: [i] enters position i, [-i-1] leaves it *)
  let tin = Array.make n 0 and tout = Array.make n 0 in
  let clock = ref 0 in
  let stack = ref [ 0 ] in
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | i :: rest when i >= 0 ->
        incr clock;
        tin.(i) <- !clock;
        stack :=
          List.rev_append
            (List.rev_map (fun c -> index.(c)) children.(i))
            ((-i - 1) :: rest)
    | i :: rest ->
        incr clock;
        tout.(-i - 1) <- !clock;
        stack := rest
  done;
  { order; index; idom; children; tin; tout }

(* RPO position of a label, -1 if it has none *)
let pos t bid =
  if bid >= 0 && bid < Array.length t.index then t.index.(bid) else -1

let rpo_index t bid =
  let i = pos t bid in
  if i < 0 then None else Some i

let idom t bid =
  let i = pos t bid in
  if i <= 0 || t.idom.(i) < 0 then None else Some t.order.(t.idom.(i))

let children t bid =
  let i = pos t bid in
  if i < 0 then [] else t.children.(i)

(** Does [a] dominate [b]?  (Reflexive; O(1) via Euler-tour intervals.) *)
let dominates t a b =
  a = b
  ||
  let ia = pos t a and ib = pos t b in
  ia >= 0 && ib >= 0
  && t.tin.(ia) > 0
  && t.tin.(ia) <= t.tin.(ib)
  && t.tin.(ib) <= t.tout.(ia)

(** Dominance frontier of every block, label-indexed. *)
let frontiers (fn : Ir.func) (t : t) : IntSet.t array =
  let preds = Cfg.preds fn in
  let df = Array.make (Array.length preds) IntSet.empty in
  List.iter
    (fun (b : Ir.block) ->
      match preds.(b.bid) with
      | _ :: _ :: _ as ps ->
          let stop =
            match idom t b.bid with Some d -> pos t d | None -> -1
          in
          List.iter
            (fun p ->
              (* walk up from each reachable predecessor to idom(b), adding
                 b to the frontier of every block passed; note the walk
                 must NOT stop at b itself — a loop header belongs to its
                 own frontier *)
              let runner = ref (pos t p) in
              while !runner >= 0 && !runner <> stop do
                let r = t.order.(!runner) in
                df.(r) <- IntSet.add b.bid df.(r);
                runner := if !runner = 0 then -1 else t.idom.(!runner)
              done)
            ps
      | _ -> ())
    fn.blocks;
  df

let frontier_of df bid =
  if bid >= 0 && bid < Array.length df then df.(bid) else IntSet.empty
