(** Sweep a few corpus utilities across symbolic input sizes, showing how
    path counts scale at each optimization level — the scaling behaviour
    behind the paper's Figure 4 (exponential at -O0, tamed under -OVERIFY).

    Run with: [dune exec examples/coreutils_sweep.exe] *)

module O = Overify
module E = Overify_harness.Experiment

let utilities = [ "wc"; "tr"; "cut"; "nl" ]
let sizes = [ 2; 3; 4 ]

let () =
  print_endline "== Path-count scaling across symbolic input sizes ==";
  List.iter
    (fun name ->
      match O.Programs.find name with
      | None -> ()
      | Some p ->
          Printf.printf "\n%s (%s)\n" name p.O.Programs.descr;
          Printf.printf "  %-9s" "level";
          List.iter (fun n -> Printf.printf "  n=%-7d" n) sizes;
          print_newline ();
          List.iter
            (fun (level : O.Costmodel.t) ->
              Printf.printf "  %-9s" level.O.Costmodel.name;
              List.iter
                (fun n ->
                  let c = E.compile level p in
                  let v =
                    O.Engine.run
                      ~config:
                        {
                          O.Engine.default_config with
                          input_size = n;
                          timeout = 20.0;
                        }
                      c.E.modul
                  in
                  Printf.printf "  %-9s"
                    (Printf.sprintf "%d%s" v.O.Engine.paths
                       (if v.O.Engine.complete then "" else "+")))
                sizes;
              print_newline ())
            O.Costmodel.all)
    utilities;
  print_endline
    "\n('+' marks runs that hit the 20 s budget before completing: the\n\
     remaining paths were not counted.)"
