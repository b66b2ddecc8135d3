(** Per-function symbolic summaries: language, fingerprints, persistence,
    substitution.  The build (trace collection) and instantiation
    (replay) live in the symex layer; see summary.mli for the soundness
    argument. *)

module Ir = Overify_ir.Ir
module Callgraph = Overify_ir.Callgraph
module Printer = Overify_ir.Printer
module Bv = Overify_solver.Bv

(* Far above the input-byte variable space (1_000_000 + size*7919 + i for
   realistic sizes) and any checkpoint-era id. *)
let param_base = 900_000_000
let global_cell_base = 910_000_000

type layout = (string * int * int) list

let layout (m : Ir.modul) : layout =
  let off = ref 0 in
  List.filter_map
    (fun (g : Ir.global) ->
      if g.Ir.gconst then None
      else begin
        let base = global_cell_base + !off in
        off := !off + g.Ir.gsize;
        Some (g.Ir.gname, base, g.Ir.gsize)
      end)
    m.Ir.globals

let cell_of_var (l : layout) (v : int) : (string * int) option =
  List.find_map
    (fun (name, base, size) ->
      if v >= base && v < base + size then Some (name, v - base) else None)
    l

type conjunct = { c_fork : bool; c_term : Bv.t }

type outcome =
  | O_ret of Bv.t option
  | O_bug of { bg_kind : string; bg_fn : string; bg_block : int }

type trace = {
  t_conjuncts : conjunct list;
  t_outcome : outcome;
  t_writes : (string * int * Bv.t) list;
  t_covered : (string * int) list;
}

type fsum = Summarized of trace list | Opaque of string

(* ---- fingerprints ---- *)

(** Globals participate in summary meaning twice: cell variables are
    positional in the writable layout, and constant-global contents fold
    into trace terms — so the layout (names, sizes, constness, initial
    bytes) is hashed into every fingerprint. *)
let glayout_string (m : Ir.modul) : string =
  String.concat ";"
    (List.map
       (fun (g : Ir.global) ->
         Printf.sprintf "%s:%d:%b:%s" g.Ir.gname g.Ir.gsize g.Ir.gconst
           (Digest.to_hex (Digest.string g.Ir.ginit)))
       m.Ir.globals)

let fingerprints (m : Ir.modul) : (string, string) Hashtbl.t =
  let fps = Hashtbl.create 16 in
  let gstr = glayout_string m in
  (* SCCs arrive callees-first, so every callee fingerprint outside the
     current SCC is already computed; inside the SCC the mutual
     dependency is covered by hashing all member bodies together. *)
  List.iter
    (fun scc ->
      let bodies =
        List.sort compare
          (List.filter_map
             (fun n -> Option.map Printer.func_to_string (Ir.find_func m n))
             scc)
      in
      let callee_fps =
        List.sort_uniq compare
          (List.concat_map
             (fun n ->
               match Ir.find_func m n with
               | None -> []
               | Some f ->
                   List.filter_map
                     (fun c ->
                       if List.mem c scc then None else Hashtbl.find_opt fps c)
                     (Callgraph.callees m f))
             scc)
      in
      let fp =
        Digest.to_hex
          (Digest.string
             (String.concat "\x00"
                ((gstr :: bodies) @ [ String.concat "," callee_fps ])))
      in
      List.iter (fun n -> Hashtbl.replace fps n fp) scc)
    (Callgraph.sccs m);
  fps

let store_key fp = "summary:" ^ fp

(* ---- the static gate ---- *)

(** No pointer-typed loads/stores (those would put object ids into
    terms), no I/O intrinsics (input offsets and output streams are
    caller-relative), no calls into code we cannot see. *)
let pure_body (m : Ir.modul) (f : Ir.func) : bool =
  let ok = ref true in
  Ir.iter_insts
    (fun _ inst ->
      match inst with
      | Ir.Load (_, Ir.Ptr, _) | Ir.Store (Ir.Ptr, _, _) -> ok := false
      | Ir.Call (_, _, callee, _) ->
          if callee = "__input" || callee = "__input_size" || callee = "__output"
          then ok := false
          else if
            (not (Ir.is_intrinsic callee)) && Ir.find_func m callee = None
          then ok := false
      | _ -> ())
    f;
  !ok

let reachable_pure (m : Ir.modul) (f : Ir.func) : bool =
  List.for_all (pure_body m) (Callgraph.reachable m f.Ir.fname)

let candidates (m : Ir.modul) : string list =
  let cyc = Callgraph.cyclic m in
  List.filter
    (fun n ->
      match Ir.find_func m n with
      | None -> false
      | Some f ->
          f.Ir.fname <> "main"
          && List.for_all
               (fun ((_, ty) : int * Ir.ty) -> Ir.is_int_ty ty)
               f.Ir.params
          && (Ir.is_int_ty f.Ir.ret || f.Ir.ret = Ir.Void)
          && (not (Callgraph.StrSet.mem n cyc))
          && reachable_pure m f)
    (Callgraph.bottom_up_order m)

(* ---- persistence ---- *)

(* Bumped whenever the marshaled shape of [fsum] changes; a mismatched
   blob is a cache miss. *)
let blob_version = 1

let encode (s : fsum) : string = Marshal.to_string (blob_version, s) []

let decode (bytes : string) : fsum option =
  try
    let ((v : int), (s : fsum)) = Marshal.from_string bytes 0 in
    if v <> blob_version then None
    else
      match s with
      | Opaque _ -> Some s
      | Summarized traces ->
          (* unmarshaled terms bypassed the hash-cons table: re-intern *)
          let rb = Bv.rebuilder () in
          Some
            (Summarized
               (List.map
                  (fun t ->
                    {
                      t with
                      t_conjuncts =
                        List.map
                          (fun c -> { c with c_term = rb c.c_term })
                          t.t_conjuncts;
                      t_outcome =
                        (match t.t_outcome with
                        | O_ret (Some r) -> O_ret (Some (rb r))
                        | o -> o);
                      t_writes =
                        List.map (fun (g, o, w) -> (g, o, rb w)) t.t_writes;
                    })
                  traces))
  with _ -> None

(* ---- substitution ---- *)

let subst ~memo ~lookup (t : Bv.t) : Bv.t =
  let rec go (t : Bv.t) : Bv.t =
    match Hashtbl.find_opt memo t.Bv.id with
    | Some r -> r
    | None ->
        let r =
          match t.Bv.node with
          | Bv.Const _ -> t
          | Bv.Var v -> if v >= param_base then lookup v else t
          | Bv.Bin (op, a, b) ->
              let a' = go a and b' = go b in
              if a' == a && b' == b then t else Bv.binop op a' b'
          | Bv.Cmp (op, a, b) ->
              let a' = go a and b' = go b in
              if a' == a && b' == b then t else Bv.cmp op a' b'
          | Bv.Ite (c, x, y) ->
              let c' = go c and x' = go x and y' = go y in
              if c' == c && x' == x && y' == y then t else Bv.ite c' x' y'
          | Bv.Concat (h, l) ->
              let h' = go h and l' = go l in
              if h' == h && l' == l then t else Bv.concat h' l'
          | Bv.Extract (hi, lo, x) ->
              let x' = go x in
              if x' == x then t else Bv.extract ~hi ~lo x'
        in
        Hashtbl.add memo t.Bv.id r;
        r
  in
  go t

(* ---- test support ---- *)

let edit_function (m : Ir.modul) (name : string) : Ir.modul =
  let f = Ir.find_func_exn m name in
  let entry = Ir.entry f in
  let dead =
    Ir.Bin (f.Ir.next, Ir.Add, Ir.I32, Ir.imm Ir.I32 0L, Ir.imm Ir.I32 0L)
  in
  let entry' = { entry with Ir.insts = dead :: entry.Ir.insts } in
  let f' = { (Ir.update_block f entry') with Ir.next = f.Ir.next + 1 } in
  Ir.update_func m f'
