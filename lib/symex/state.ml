(** Execution states of the symbolic executor.  States are persistent
    values: forking shares everything structurally. *)

module Ir = Overify_ir.Ir
module Bv = Overify_solver.Bv
module IMap = Map.Make (Int)

type frame = {
  fn : Ir.func;
  regs : Sval.t IMap.t;
  cur_block : int;
  prev_block : int;
  insts : Ir.inst list;        (** remaining instructions of the block *)
  ret_dst : int option;        (** caller register receiving the result *)
  frame_objs : int list;       (** allocas to kill on return *)
}

type t = {
  frames : frame list;         (** top of the stack first *)
  mem : Memory.t;
  path : Bv.t list;            (** path condition (conjunction) *)
  model : (int * int64) list;  (** an assignment satisfying [path] *)
}

let top (st : t) =
  match st.frames with
  | f :: _ -> f
  | [] -> invalid_arg "State.top: no frame"

let with_top (st : t) f =
  match st.frames with
  | fr :: rest -> { st with frames = f fr :: rest }
  | [] -> invalid_arg "State.with_top: no frame"

let set_reg (st : t) r v =
  with_top st (fun fr -> { fr with regs = IMap.add r v fr.regs })

let get_reg (st : t) r =
  match IMap.find_opt r (top st).regs with
  | Some v -> v
  | None ->
      failwith (Printf.sprintf "symex: undefined register %%%d in %s" r
                  (top st).fn.Ir.fname)

(** Evaluate the model on a term (for the solver-free feasibility check). *)
let model_eval (st : t) (c : Bv.t) : bool =
  let lookup id =
    match List.assoc_opt id st.model with Some v -> v | None -> 0L
  in
  Bv.eval lookup c = 1L
