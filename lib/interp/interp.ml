(** Concrete IR interpreter with a CPU cycle cost model.

    This is the "execution" side of the paper's trade-off: it measures
    [t_run] for Table 1 and serves as the semantic oracle for differential
    testing of optimization passes (same input must produce the same exit
    code and output bytes at every optimization level).

    The cost model is a simple in-order CPU approximation; absolute numbers
    are meaningless but relative costs (branches vs straight-line speculated
    code) reproduce the paper's observation that verification-optimized code
    runs slower. *)

module Ir = Overify_ir.Ir

type trap =
  | Out_of_bounds of string
  | Null_deref
  | Use_after_free
  | Div_by_zero
  | Assert_failure
  | Abort_called
  | Unknown_function of string
  | Out_of_fuel
  | Invalid of string

let string_of_trap = function
  | Out_of_bounds s -> "out-of-bounds access: " ^ s
  | Null_deref -> "null pointer dereference"
  | Use_after_free -> "use after scope exit"
  | Div_by_zero -> "division by zero"
  | Assert_failure -> "assertion failure"
  | Abort_called -> "abort called"
  | Unknown_function f -> "call to unknown function " ^ f
  | Out_of_fuel -> "instruction budget exhausted"
  | Invalid s -> "invalid operation: " ^ s

exception Trap of trap

(** Runtime values: normalized integers or (object, byte-offset) pointers.
    The null pointer is object 0. *)
type value = VInt of int64 | VPtr of int * int

let vnull = VPtr (0, 0)

type obj = { data : Bytes.t; mutable live : bool; writable : bool }

(** Per-instruction cycle costs. *)
module Cost = struct
  let alu = 1
  let mul = 3
  let divide = 24
  let cmp = 1
  let select = 1
  let cast = 1
  let load = 4
  let store = 4
  let gep = 1
  let call = 6
  let ret = 2
  let br = 1
  let cbr = 3
  let phi = 0

  let of_inst = function
    | Ir.Bin (_, (Ir.Mul), _, _, _) -> mul
    | Ir.Bin (_, (Ir.Sdiv | Ir.Udiv | Ir.Srem | Ir.Urem), _, _, _) -> divide
    | Ir.Bin _ -> alu
    | Ir.Cmp _ -> cmp
    | Ir.Select _ -> select
    | Ir.Cast _ -> cast
    | Ir.Alloca _ -> alu
    | Ir.Load _ -> load
    | Ir.Store _ -> store
    | Ir.Gep _ -> gep
    | Ir.Call _ -> call
    | Ir.Phi _ -> phi

  let of_term = function
    | Ir.Br _ -> br
    | Ir.Cbr _ -> cbr
    | Ir.Ret _ -> ret
    | Ir.Unreachable -> 0
end

type result = {
  exit_code : int64;
  output : string;
  cycles : int;
  insts : int;  (** dynamic instruction count *)
  trap : trap option;
}

type state = {
  modul : Ir.modul;
  objects : (int, obj) Hashtbl.t;
  globals : (string, int) Hashtbl.t;  (* global name -> object id *)
  input : string;
  out : Buffer.t;
  mutable next_obj : int;
  mutable cycles : int;
  mutable insts : int;
  mutable fuel : int;
}

let new_obj st ~size ~writable =
  let id = st.next_obj in
  st.next_obj <- id + 1;
  Hashtbl.replace st.objects id
    { data = Bytes.make size '\000'; live = true; writable };
  id

let obj_of st id =
  match Hashtbl.find_opt st.objects id with
  | Some o -> o
  | None -> raise (Trap (Invalid "dangling object id"))

(* little-endian scalar access *)
let read_scalar st (obj, off) size =
  if obj = 0 then raise (Trap Null_deref);
  let o = obj_of st obj in
  if not o.live then raise (Trap Use_after_free);
  if off < 0 || off + size > Bytes.length o.data then
    raise
      (Trap
         (Out_of_bounds
            (Printf.sprintf "load of %d bytes at offset %d of %d-byte object"
               size off (Bytes.length o.data))));
  let v = ref 0L in
  for i = size - 1 downto 0 do
    v := Int64.logor (Int64.shift_left !v 8)
           (Int64.of_int (Char.code (Bytes.get o.data (off + i))))
  done;
  !v

let write_scalar st (obj, off) size v =
  if obj = 0 then raise (Trap Null_deref);
  let o = obj_of st obj in
  if not o.live then raise (Trap Use_after_free);
  if not o.writable then raise (Trap (Out_of_bounds "write to read-only data"));
  if off < 0 || off + size > Bytes.length o.data then
    raise
      (Trap
         (Out_of_bounds
            (Printf.sprintf "store of %d bytes at offset %d of %d-byte object"
               size off (Bytes.length o.data))));
  for i = 0 to size - 1 do
    Bytes.set o.data (off + i)
      (Char.chr (Int64.to_int (Int64.logand (Int64.shift_right_logical v (8 * i)) 0xFFL)))
  done

let as_int = function
  | VInt v -> v
  | VPtr (0, 0) -> 0L
  | VPtr _ -> raise (Trap (Invalid "pointer used as integer"))

let as_ptr = function
  | VPtr (o, off) -> (o, off)
  | VInt 0L -> (0, 0)
  | VInt _ -> raise (Trap (Invalid "integer used as pointer"))

(* ------------------------------------------------------------------ *)

let charge st c =
  st.cycles <- st.cycles + c;
  st.insts <- st.insts + 1;
  st.fuel <- st.fuel - 1;
  if st.fuel <= 0 then raise (Trap Out_of_fuel)

let eval_value regs = function
  | Ir.Imm (v, Ir.Ptr) ->
      if v = 0L then vnull
      else raise (Trap (Invalid "non-null pointer constant"))
  | Ir.Imm (v, _) -> VInt v
  | Ir.Reg r -> (
      match Hashtbl.find_opt regs r with
      | Some v -> v
      | None ->
          raise (Trap (Invalid (Printf.sprintf "undefined register %%%d" r))))
  | Ir.Glob name ->
      raise (Trap (Invalid ("unresolved global " ^ name)))
      (* resolved by the caller's [eval] before reaching here *)

let rec exec_func st (fn : Ir.func) (args : value list) : value option =
  let regs : (int, value) Hashtbl.t = Hashtbl.create 64 in
  let frame_objs = ref [] in
  (try List.iter2 (fun (r, _) v -> Hashtbl.replace regs r v) fn.params args
   with Invalid_argument _ ->
     raise (Trap (Invalid ("arity mismatch calling " ^ fn.fname))));
  let eval v =
    match v with
    | Ir.Glob name -> (
        match Hashtbl.find_opt st.globals name with
        | Some o -> VPtr (o, 0)
        | None -> raise (Trap (Invalid ("unknown global " ^ name))))
    | _ -> eval_value regs v
  in
  let set r v = Hashtbl.replace regs r v in
  (* in-order pipeline model: consuming the immediately preceding result
     stalls for one cycle; the -O2/-O3 scheduler spreads such pairs apart,
     while -OVERIFY's serial select chains pay it in full *)
  let last_def = ref (-1) in
  let charge_stall inst =
    if !last_def >= 0
       && List.exists (fun v -> v = Ir.Reg !last_def) (Ir.uses_of_inst inst)
    then st.cycles <- st.cycles + 1;
    last_def := (match Ir.def_of_inst inst with Some d -> d | None -> -1)
  in
  let btbl = Ir.block_tbl fn in
  let result = ref None in
  let rec run_block prev (b : Ir.block) =
    (* evaluate phis simultaneously *)
    let phis, rest =
      let rec split acc = function
        | (Ir.Phi _ as p) :: tl -> split (p :: acc) tl
        | tl -> (List.rev acc, tl)
      in
      split [] b.insts
    in
    let phi_vals =
      List.map
        (fun p ->
          match p with
          | Ir.Phi (d, _, incoming) -> (
              match List.assoc_opt prev incoming with
              | Some v -> (d, eval v)
              | None ->
                  raise (Trap (Invalid "phi has no entry for predecessor")))
          | _ -> assert false)
        phis
    in
    List.iter (fun (d, v) -> set d v) phi_vals;
    List.iter (fun p -> charge st (Cost.of_inst p)) phis;
    List.iter exec_one rest;
    charge st (Cost.of_term b.term);
    match b.term with
    | Ir.Br l -> run_block b.bid (Hashtbl.find btbl l)
    | Ir.Cbr (c, t, e) ->
        let v = as_int (eval c) in
        run_block b.bid (Hashtbl.find btbl (if v <> 0L then t else e))
    | Ir.Ret None -> result := None
    | Ir.Ret (Some v) -> result := Some (eval v)
    | Ir.Unreachable -> raise (Trap (Invalid "reached unreachable"))
  and exec_one inst =
    charge st (Cost.of_inst inst);
    charge_stall inst;
    match inst with
    | Ir.Bin (d, op, ty, a, b) -> (
        let va = as_int (eval a) and vb = as_int (eval b) in
        match Ir.eval_binop op (Ir.bits_of_ty ty) va vb with
        | Some v -> set d (VInt v)
        | None -> raise (Trap Div_by_zero))
    | Ir.Cmp (d, op, ty, a, b) ->
        let r =
          match ty with
          | Ir.Ptr ->
              let pa = as_ptr (eval a) and pb = as_ptr (eval b) in
              let eq = pa = pb in
              (match op with
              | Ir.Eq -> eq
              | Ir.Ne -> not eq
              | _ -> raise (Trap (Invalid "ordered pointer comparison")))
          | _ ->
              Ir.eval_cmp op (Ir.bits_of_ty ty) (as_int (eval a))
                (as_int (eval b))
        in
        set d (VInt (if r then 1L else 0L))
    | Ir.Select (d, ty, c, a, b) ->
        ignore ty;
        let v = if as_int (eval c) <> 0L then eval a else eval b in
        set d v
    | Ir.Cast (d, op, to_ty, v, from_ty) ->
        set d (VInt (Ir.eval_cast op to_ty (as_int (eval v)) from_ty))
    | Ir.Alloca (d, ty, n) ->
        let id = new_obj st ~size:(Ir.size_of_ty ty * n) ~writable:true in
        frame_objs := id :: !frame_objs;
        set d (VPtr (id, 0))
    | Ir.Load (d, ty, p) ->
        let (o, off) = as_ptr (eval p) in
        if ty = Ir.Ptr then begin
          let raw = read_scalar st (o, off) 8 in
          set d (VPtr (Ir.ptr_obj raw, Ir.ptr_off raw))
        end
        else set d (VInt (read_scalar st (o, off) (Ir.size_of_ty ty)))
    | Ir.Store (ty, v, p) ->
        let (o, off) = as_ptr (eval p) in
        if ty = Ir.Ptr then begin
          let raw =
            match eval v with
            | VPtr (po, poff) -> Ir.encode_ptr po poff
            | VInt 0L -> 0L
            | VInt _ -> raise (Trap (Invalid "storing integer as pointer"))
          in
          write_scalar st (o, off) 8 raw
        end
        else write_scalar st (o, off) (Ir.size_of_ty ty) (as_int (eval v))
    | Ir.Gep (d, base, scale, idx) ->
        let (o, off) = as_ptr (eval base) in
        let i = Int64.to_int (Ir.signed_of Ir.I64 (as_int (eval idx))) in
        set d (VPtr (o, off + (scale * i)))
    | Ir.Call (d, _, name, args) -> (
        let vargs = List.map eval args in
        match exec_call st name vargs with
        | Some v -> ( match d with Some d -> set d v | None -> ())
        | None -> ())
    | Ir.Phi _ -> raise (Trap (Invalid "phi not at block start"))
  in
  run_block (-1) (Ir.entry fn);
  (* free the frame's stack objects *)
  List.iter
    (fun id ->
      match Hashtbl.find_opt st.objects id with
      | Some o -> o.live <- false
      | None -> ())
    !frame_objs;
  !result

and exec_call st name (args : value list) : value option =
  match name with
  | "__input" ->
      let i = Int64.to_int (Ir.signed_of Ir.I32 (as_int (List.nth args 0))) in
      let v =
        if i >= 0 && i < String.length st.input then
          Int64.of_int (Char.code st.input.[i])
        else 0L
      in
      Some (VInt v)
  | "__input_size" -> Some (VInt (Int64.of_int (String.length st.input)))
  | "__output" ->
      let c = Int64.to_int (Int64.logand (as_int (List.nth args 0)) 0xFFL) in
      Buffer.add_char st.out (Char.chr c);
      None
  | "__abort" -> raise (Trap Abort_called)
  | "__assert" ->
      if as_int (List.nth args 0) = 0L then raise (Trap Assert_failure);
      None
  | _ -> (
      match Ir.find_func st.modul name with
      | Some fn -> exec_func st fn args
      | None -> raise (Trap (Unknown_function name)))

(** Run [main] of a module against a concrete [input] byte string. *)
let run ?(fuel = 50_000_000) (m : Ir.modul) ~(input : string) : result =
  let st =
    {
      modul = m;
      objects = Hashtbl.create 64;
      globals = Hashtbl.create 16;
      input;
      out = Buffer.create 64;
      next_obj = 1;
      cycles = 0;
      insts = 0;
      fuel;
    }
  in
  (* materialize globals *)
  List.iter
    (fun (g : Ir.global) ->
      let id = new_obj st ~size:g.gsize ~writable:(not g.gconst) in
      let o = Hashtbl.find st.objects id in
      Bytes.blit_string g.ginit 0 o.data 0
        (min (String.length g.ginit) g.gsize);
      Hashtbl.replace st.globals g.gname id)
    m.globals;
  match Ir.find_func m "main" with
  | None ->
      { exit_code = -1L; output = ""; cycles = 0; insts = 0;
        trap = Some (Unknown_function "main") }
  | Some main -> (
      try
        let r = exec_func st main [] in
        let code = match r with Some (VInt v) -> v | _ -> 0L in
        {
          exit_code = Ir.signed_of Ir.I32 code;
          output = Buffer.contents st.out;
          cycles = st.cycles;
          insts = st.insts;
          trap = None;
        }
      with Trap t ->
        {
          exit_code = -1L;
          output = Buffer.contents st.out;
          cycles = st.cycles;
          insts = st.insts;
          trap = Some t;
        })
