(** Call graph over direct calls, used to order inlining bottom-up. *)

module StrSet = Set.Make (String)

(** Callees of [fn] that are defined in the module (intrinsics and unknown
    externals excluded), without duplicates, in first-call order. *)
let callees (m : Ir.modul) (fn : Ir.func) : string list =
  let defined = List.map (fun (f : Ir.func) -> f.Ir.fname) m.funcs in
  let seen = ref StrSet.empty in
  let out = ref [] in
  Ir.iter_insts
    (fun _ inst ->
      match inst with
      | Ir.Call (_, _, callee, _)
        when List.mem callee defined && not (StrSet.mem callee !seen) ->
          seen := StrSet.add callee !seen;
          out := callee :: !out
      | _ -> ())
    fn;
  List.rev !out

(** The defined functions reachable from [name] through direct calls, [name]
    itself included, in module order. *)
let reachable (m : Ir.modul) (name : string) : Ir.func list =
  let seen = Hashtbl.create 16 in
  let rec visit name =
    if not (Hashtbl.mem seen name) then begin
      Hashtbl.replace seen name ();
      match Ir.find_func m name with
      | Some fn -> List.iter visit (callees m fn)
      | None -> ()
    end
  in
  visit name;
  List.filter (fun (f : Ir.func) -> Hashtbl.mem seen f.Ir.fname) m.funcs

(** Is [name] on a call-graph cycle (including direct recursion)?  True when
    [name] is reachable from one of its own callees. *)
let in_cycle (m : Ir.modul) (name : string) : bool =
  match Ir.find_func m name with
  | None -> false
  | Some f ->
      let visited = ref StrSet.empty in
      let rec reaches cur =
        cur = name
        || (not (StrSet.mem cur !visited)
           && begin
                visited := StrSet.add cur !visited;
                match Ir.find_func m cur with
                | None -> false
                | Some cf -> List.exists reaches (callees m cf)
              end)
      in
      List.exists reaches (callees m f)

(** Strongly connected components of the call graph (Tarjan), returned in
    reverse topological order: every callee's SCC appears before any caller's.
    Singleton SCCs without a self-call are acyclic; everything else is a
    genuine cycle (direct or mutual recursion). *)
let sccs (m : Ir.modul) : string list list =
  let index = Hashtbl.create 16 in
  let lowlink = Hashtbl.create 16 in
  let on_stack = Hashtbl.create 16 in
  let stack = ref [] in
  let next = ref 0 in
  let out = ref [] in
  let rec strongconnect name =
    Hashtbl.replace index name !next;
    Hashtbl.replace lowlink name !next;
    incr next;
    stack := name :: !stack;
    Hashtbl.replace on_stack name true;
    (match Ir.find_func m name with
    | None -> ()
    | Some f ->
        List.iter
          (fun callee ->
            if not (Hashtbl.mem index callee) then begin
              strongconnect callee;
              Hashtbl.replace lowlink name
                (min (Hashtbl.find lowlink name) (Hashtbl.find lowlink callee))
            end
            else if Hashtbl.mem on_stack callee then
              Hashtbl.replace lowlink name
                (min (Hashtbl.find lowlink name) (Hashtbl.find index callee)))
          (callees m f));
    if Hashtbl.find lowlink name = Hashtbl.find index name then begin
      let rec pop acc =
        match !stack with
        | [] -> acc
        | hd :: tl ->
            stack := tl;
            Hashtbl.remove on_stack hd;
            if hd = name then hd :: acc else pop (hd :: acc)
      in
      out := pop [] :: !out
    end
  in
  List.iter
    (fun (f : Ir.func) -> if not (Hashtbl.mem index f.Ir.fname) then strongconnect f.Ir.fname)
    m.funcs;
  List.rev !out

(** Names of functions lying on any call-graph cycle: members of non-singleton
    SCCs plus directly self-recursive singletons. *)
let cyclic (m : Ir.modul) : StrSet.t =
  List.fold_left
    (fun acc scc ->
      match scc with
      | [ n ] ->
          let self =
            match Ir.find_func m n with
            | Some f -> List.mem n (callees m f)
            | None -> false
          in
          if self then StrSet.add n acc else acc
      | ns -> List.fold_left (fun a n -> StrSet.add n a) acc ns)
    StrSet.empty (sccs m)

(** Function names ordered so that callees come before callers (cycles broken
    arbitrarily); the order used by the inliner. *)
let bottom_up_order (m : Ir.modul) : string list =
  let visited = ref StrSet.empty in
  let order = ref [] in
  let rec go name =
    if not (StrSet.mem name !visited) then begin
      visited := StrSet.add name !visited;
      (match Ir.find_func m name with
      | Some f -> List.iter go (callees m f)
      | None -> ());
      order := name :: !order
    end
  in
  List.iter (fun (f : Ir.func) -> go f.Ir.fname) m.funcs;
  List.rev !order
