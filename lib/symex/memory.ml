(** Symbolic byte-granular memory with copy-on-write objects.

    Each object is an array of 8-bit {!Sval}s: a concrete byte or a term.
    Reads and writes at concrete offsets touch the exact cells; an access
    whose bytes are all concrete computes its value and builds no term.
    Symbolic offsets build ITE chains over every in-bounds position
    (KLEE's array selects, materialized eagerly).  States share objects
    structurally; every write replaces the object's cell array, so forked
    states never observe each other's writes. *)

module Bv = Overify_solver.Bv
module IMap = Map.Make (Int)

type obj = {
  size : int;
  cells : Sval.t array;
  writable : bool;
  live : bool;
}

type t = {
  objs : obj IMap.t;
  next_obj : int;
}

type access_error =
  | Out_of_bounds of { size : int; offset : string; width : int }
  | Dead_object
  | Read_only
  | Too_wide_ite  (** symbolic offset over an object above the ITE cap *)

let ite_cap = 1200

(* the 256 concrete cells, shared by every object *)
let bytes = Array.init 256 (fun b -> Sval.Con (8, Int64.of_int b))

let cell_of_term (t : Bv.t) =
  match t.Bv.node with
  | Bv.Const b -> bytes.(Int64.to_int b)
  | _ -> Sval.Sym t

let empty = { objs = IMap.empty; next_obj = 1 }

let alloc ?(writable = true) (m : t) ~size : t * int =
  let id = m.next_obj in
  let o =
    { size; cells = Array.make (max size 1) bytes.(0); writable; live = true }
  in
  ({ objs = IMap.add id o m.objs; next_obj = id + 1 }, id)

(** Allocate and initialize from a byte string (globals). *)
let alloc_bytes ?(writable = true) (m : t) (img : string) ~size : t * int =
  let (m, id) = alloc ~writable m ~size in
  let o = IMap.find id m.objs in
  String.iteri
    (fun i c -> if i < size then o.cells.(i) <- bytes.(Char.code c))
    img;
  (m, id)

(** Install symbolic bytes (the program input). *)
let alloc_symbolic (m : t) ~(vars : int array) : t * int =
  let (m, id) = alloc m ~size:(Array.length vars) in
  let o = IMap.find id m.objs in
  Array.iteri (fun i v -> o.cells.(i) <- Sval.Sym (Bv.var 8 v)) vars;
  (m, id)

let find (m : t) id = IMap.find_opt id m.objs

let kill (m : t) id =
  match IMap.find_opt id m.objs with
  | Some o -> { m with objs = IMap.add id { o with live = false } m.objs }
  | None -> m

(* [width] bytes at concrete offset [off], little-endian: their value when
   every byte is concrete, else the concat chain of the cells' terms *)
let assemble (o : obj) off width : Sval.t =
  let v = ref 0L and concrete = ref true in
  for i = width - 1 downto 0 do
    match o.cells.(off + i) with
    | Sval.Con (_, b) -> v := Int64.logor (Int64.shift_left !v 8) b
    | Sval.Sym _ | Sval.Ptr _ | Sval.Sym_ptr _ -> concrete := false
  done;
  if !concrete then Sval.Con (8 * width, !v)
  else begin
    let t = ref (Sval.term o.cells.(off)) in
    for i = 1 to width - 1 do
      t := Bv.concat (Sval.term o.cells.(off + i)) !t
    done;
    Sval.of_term !t
  end

(* the live object a pointer points into *)
let target (m : t) (p : Sval.t) =
  let obj = Sval.obj p in
  match IMap.find_opt obj m.objs with
  | Some o when o.live -> Ok (obj, o)
  | Some _ | None -> Error Dead_object

let out_of_bounds (o : obj) offset width =
  Error (Out_of_bounds { size = o.size; offset; width })

(** Read [width] bytes at pointer [p]. *)
let read (m : t) (p : Sval.t) ~width : (Sval.t, access_error) result =
  match target m p with
  | Error e -> Error e
  | Ok (_, o) -> (
      match p with
      | Sval.Ptr (_, c) ->
          if c < 0 || c + width > o.size then
            out_of_bounds o (string_of_int c) width
          else Ok (assemble o c width)
      | _ ->
          (* symbolic offset: ITE chain over in-bounds positions; the
             caller has already constrained the offset to be in bounds *)
          let off = Sval.off_term p in
          let span = o.size - width in
          if span < 0 then out_of_bounds o (Bv.to_string off) width
          else if span > ite_cap then Error Too_wide_ite
          else begin
            let acc = ref (Sval.term (assemble o span width)) in
            for s = span - 1 downto 0 do
              acc :=
                Bv.ite
                  (Bv.cmp Bv.Eq off (Bv.const 64 (Int64.of_int s)))
                  (Sval.term (assemble o s width))
                  !acc
            done;
            Ok (Sval.of_term !acc)
          end)

(** Write integer [v], zero-extended to [width] bytes, at pointer [p]. *)
let write (m : t) (p : Sval.t) ~width ~(v : Sval.t) : (t, access_error) result =
  match target m p with
  | Error e -> Error e
  | Ok (_, o) when not o.writable -> Error Read_only
  | Ok (obj, o) -> (
      let stored cells =
        Ok { m with objs = IMap.add obj { o with cells } m.objs }
      in
      match p with
      | Sval.Ptr (_, c) ->
          if c < 0 || c + width > o.size then
            out_of_bounds o (string_of_int c) width
          else begin
            let cells = Array.copy o.cells in
            (match v with
            | Sval.Con (_, x) ->
                for i = 0 to width - 1 do
                  let b = Int64.shift_right_logical x (8 * i) in
                  cells.(c + i) <- bytes.(Int64.to_int b land 0xFF)
                done
            | _ ->
                let t = Bv.zext (8 * width) (Sval.term v) in
                for i = 0 to width - 1 do
                  cells.(c + i) <-
                    cell_of_term (Bv.extract ~hi:((8 * i) + 7) ~lo:(8 * i) t)
                done);
            stored cells
          end
      | _ ->
          let off = Sval.off_term p in
          let span = o.size - width in
          if span < 0 then out_of_bounds o (Bv.to_string off) width
          else if span > ite_cap then Error Too_wide_ite
          else begin
            let t = Bv.zext (8 * width) (Sval.term v) in
            let cells = Array.copy o.cells in
            (* cell i gets byte (i - s) of v when off = s, for any valid s *)
            for i = 0 to o.size - 1 do
              let acc = ref (Sval.term cells.(i)) in
              for j = width - 1 downto 0 do
                let s = i - j in
                if s >= 0 && s <= span then
                  acc :=
                    Bv.ite
                      (Bv.cmp Bv.Eq off (Bv.const 64 (Int64.of_int s)))
                      (Bv.extract ~hi:((8 * j) + 7) ~lo:(8 * j) t)
                      !acc
              done;
              cells.(i) <- cell_of_term !acc
            done;
            stored cells
          end)

let string_of_error = function
  | Out_of_bounds { size; offset; width } ->
      Printf.sprintf "out-of-bounds access (%d bytes at %s of %d-byte object)"
        width offset size
  | Dead_object -> "use of dead object"
  | Read_only -> "write to read-only memory"
  | Too_wide_ite -> "symbolic offset over too-large object"

(* checkpoint support: rebuild every symbolic cell through a [Bv.rebuilder] *)
let map_terms f (m : t) =
  let rebuild o = { o with cells = Array.map (Sval.map_term f) o.cells } in
  { m with objs = IMap.map rebuild m.objs }
