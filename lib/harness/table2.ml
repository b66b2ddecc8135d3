(** Table 2: measured ablation of the paper's qualitative
    transformation-impact matrix.

    Each row compares two levels that differ only in one transformation
    class: the full [-OVERIFY] pass list against the same list without that
    class (or with it, for runtime checks), and [-O3] against [-O3] without
    scheduling.  It measures the impact on verification effort (instructions
    the symbolic engine executes, Table 1's deterministic count) and on
    simulated execution cycles over a few representative corpus programs.  A
    '+' means the transformation helps (the count drops when it is enabled),
    '-' means it hurts, '0' means within 5%. *)

module Costmodel = Overify_opt.Costmodel
module Engine = Overify_symex.Engine

type row = {
  transformation : string;
  verify_factor : float;
      (** symbolic instructions(disabled) / symbolic instructions(enabled) *)
  exec_factor : float;    (** cycles(disabled) / cycles(enabled) *)
  paths_with : int;
  paths_without : int;
}

let sign ?(threshold = 1.05) f =
  if f > threshold then "+" else if f < 1.0 /. threshold then "-" else "0"

(** Verification impact sign: when the ablation changes the path count it
    gives the answer; otherwise the instruction factor does. *)
let verify_sign (r : row) =
  if r.paths_without <> r.paths_with then
    sign (float_of_int r.paths_without /. float_of_int (max r.paths_with 1))
  else sign r.verify_factor

let test_programs = [ "wc"; "tr"; "nl"; "cut" ]

(** Total symbolic instructions, cycles and paths over the ablation program
    set. *)
let measure_level ?(input_size = 4) ?(timeout = 20.0) (cm : Costmodel.t) :
    int * float * int =
  List.fold_left
    (fun (insts, cyc, paths) name ->
      match Overify_corpus.Programs.find name with
      | None -> (insts, cyc, paths)
      | Some p ->
          let c = Experiment.compile cm p in
          let v =
            Engine.run
              ~config:{ Engine.default_config with input_size; timeout }
              c.Experiment.modul
          in
          let cycles = Experiment.measure_cycles ~size:12 c in
          ( insts + v.Engine.instructions,
            cyc +. cycles,
            paths + v.Engine.paths ))
    (0, 0.0, 0) test_programs

(** One row: the program set measured at [with_] and at [without], two
    levels that differ only in the transformation [name]. *)
let compare_levels ?input_size ?timeout ~name ~(with_ : Costmodel.t)
    ~(without : Costmodel.t) () : row =
  let (i_on, cyc_on, p_on) = measure_level ?input_size ?timeout with_ in
  let (i_off, cyc_off, p_off) = measure_level ?input_size ?timeout without in
  {
    transformation = name;
    verify_factor = float_of_int i_off /. float_of_int (max i_on 1);
    exec_factor = cyc_off /. max cyc_on 1e-6;
    paths_with = p_on;
    paths_without = p_off;
  }

(** Ablation: [base] against [base] without the [disabled] passes. *)
let ablate ?input_size ?timeout ~name ~(base : Costmodel.t)
    ~(disabled : string list) () : row =
  let without =
    { base with
      Costmodel.passes =
        List.filter (fun p -> not (List.mem p disabled)) base.Costmodel.passes }
  in
  compare_levels ?input_size ?timeout ~name ~with_:base ~without ()

let rows ?input_size ?timeout () : row list =
  let ab = ablate ?input_size ?timeout in
  let ov = Costmodel.overify in
  [
    ab ~name:"Constant propagation/folding, arithmetic simplifications"
      ~base:ov ~disabled:[ "constfold"; "gvn" ] ();
    ab ~name:"Remove/split memory accesses"
      ~base:ov ~disabled:[ "mem2reg"; "sroa"; "loadelim" ] ();
    ab ~name:"Simplify control flow: jump threading, loop unswitching"
      ~base:ov ~disabled:[ "jump_threading"; "unswitch" ] ();
    ab ~name:"Speculate branches (if-conversion)"
      ~base:ov ~disabled:[ "if_convert" ] ();
    ab ~name:"Restructure the program: function inlining, loop unrolling"
      ~base:ov ~disabled:[ "inline"; "unroll" ] ();
    ab ~name:"CPU-specific: instruction scheduling"
      ~base:Costmodel.o3 ~disabled:[ "schedule" ] ();
    (* enabling the checks adds work for both consumers, but turns every
       failure mode into a crash *)
    compare_levels ?input_size ?timeout ~name:"Generate runtime checks"
      ~with_:{ ov with Costmodel.passes = "runtime_checks" :: ov.Costmodel.passes }
      ~without:ov ();
  ]

let print ?(input_size = 4) ?timeout () =
  Report.section
    "Table 2: measured impact of transformation classes (ablation)";
  let rs = rows ~input_size ?timeout () in
  Report.table
    ([ "Transformation"; "Verification"; "Execution"; "x fewer verify insts";
       "x faster exec"; "paths with/without" ]
    :: List.map
         (fun r ->
           [
             r.transformation;
             verify_sign r;
             sign r.exec_factor;
             Printf.sprintf "%.2f" r.verify_factor;
             Printf.sprintf "%.2f" r.exec_factor;
             Printf.sprintf "%d/%d" r.paths_with r.paths_without;
           ])
         rs);
  print_endline
    "('+' = transformation speeds this consumer up, '-' = slows it down;\n\
    \ factors are symbolic instructions and cycles without / with over the\n\
    \ ablation program set)";
  rs
