(** The build chain of the paper's Figure 3: one source, three build
    configurations —

    - a debug/development build ([-O0] + runtime checks, for humans),
    - a release build ([-O3], for CPUs),
    - a verification build ([-OVERIFY], for automated analysis tools).

    Run with: [dune exec examples/buildchain.exe] *)

module O = Overify

let program = (Option.get (O.Programs.find "tr")).O.Programs.source

let () =
  print_endline "== Figure 3: three build configurations of tr ==\n";

  (* Debug & develop: unoptimized, with explicit runtime checks so failures
     crash close to their cause. *)
  let debug_level =
    { O.Costmodel.o0 with
      O.Costmodel.name = "-O0 -g (debug)";
      passes = [ "runtime_checks" ] }
  in
  let debug = O.compile ~level:debug_level program in
  let r = O.Interp.run debug ~input:"ab_a_b_" in
  Printf.printf "%-18s tr('a'->'b') over \"_a_b_\": %S (%d cycles, %d static insts)\n"
    debug_level.O.Costmodel.name r.O.Interp.output r.O.Interp.cycles
    (List.fold_left (fun a f -> a + O.Ir.func_size f) 0 debug.O.Ir.funcs);

  (* Release: fastest execution. *)
  let release = O.compile ~level:O.Costmodel.o3 program in
  let r = O.Interp.run release ~input:"ab_a_b_" in
  Printf.printf "%-18s same run: %S (%d cycles, %d static insts)\n"
    "-O3 (release)" r.O.Interp.output r.O.Interp.cycles
    (List.fold_left (fun a f -> a + O.Ir.func_size f) 0 release.O.Ir.funcs);

  (* Automated analysis: fastest verification. *)
  let verif = O.compile ~level:O.Costmodel.overify program in
  let config =
    { O.Engine.default_config with input_size = 6; timeout = 30.0 }
  in
  let v = O.Engine.run ~config verif in
  Printf.printf "%-18s symbolic execution: %d paths, %d instructions, %.1f ms\n"
    "-OVERIFY (verify)" v.O.Engine.paths v.O.Engine.instructions
    (v.O.Engine.time *. 1000.);

  (* and the same analysis against the release build, for contrast *)
  let v3 = O.Engine.run ~config release in
  Printf.printf "%-18s symbolic execution: %d paths, %d instructions, %.1f ms\n"
    "-O3 (for contrast)" v3.O.Engine.paths v3.O.Engine.instructions
    (v3.O.Engine.time *. 1000.);

  (* metadata the -OVERIFY build preserves for downstream tools *)
  print_endline "\nAnnotations preserved in the -OVERIFY build of main:";
  let main = O.Ir.find_func_exn verif "main" in
  List.iter
    (fun (k, v) -> Printf.printf "  %-16s = %s\n" k v)
    (List.filteri (fun i _ -> i < 12) main.O.Ir.fmeta);

  print_endline
    "\nThe three artifacts are behaviorally equivalent; they differ in what\n\
     they are optimized for. This is the deployment story of the paper's\n\
     Figure 3: ship -O3, debug with checks, hand -OVERIFY to the verifier."
