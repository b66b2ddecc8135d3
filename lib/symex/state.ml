(** Execution states of the symbolic executor.  States are persistent
    values: forking shares everything structurally. *)

module Ir = Overify_ir.Ir
module Solver = Overify_solver.Solver
module IMap = Map.Make (Int)

type frame = {
  fn : Ir.func;
  regs : Sval.t IMap.t;
  cur_block : int;
  prev_block : int;
  insts : Ir.inst list;        (** remaining instructions of the block *)
  term : Ir.term;              (** the terminator of [cur_block] *)
  ret_dst : int option;        (** caller register receiving the result *)
  frame_objs : int list;       (** allocas to kill on return *)
}

type t = {
  frames : frame list;         (** top of the stack first *)
  mem : Memory.t;
  pc : Solver.Pc.t;            (** path condition, with a model satisfying it *)
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
