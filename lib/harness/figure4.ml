(** Figure 4: per-program compile+analysis time over the whole corpus at
    [-O0], [-O3] and [-OVERIFY], with a per-program budget.

    The paper plots, per program, the time of the faster of -O3/-OVERIFY
    plus the time gained by the winner; we print the same series (sorted by
    gain, as in the figure) as text columns, and the summary statistics the
    paper quotes: average reduction, maximum speedup, and the number of
    programs that only finish under -OVERIFY. *)

module Costmodel = Overify_opt.Costmodel
module Engine = Overify_symex.Engine

type cell = {
  total_s : float;       (** compile + analysis, seconds *)
  complete : bool;
  paths : int;
  bugs : (string * string) list;  (** kind, function *)
}

type entry = {
  pname : string;
  o0 : cell;
  o3 : cell;
  overify : cell;
}

let measure_one ?(input_size = 5) ?(timeout = 10.0) level program : cell =
  let c = Experiment.compile level program in
  let v =
    Engine.run
      ~config:{ Engine.default_config with input_size; timeout }
      c.Experiment.modul
  in
  {
    total_s = c.Experiment.t_compile +. v.Engine.time;
    complete = v.Engine.complete;
    paths = v.Engine.paths;
    bugs =
      List.map
        (fun (b : Engine.bug) -> (b.Engine.kind, b.Engine.at_function))
        v.Engine.bugs;
  }

let measure ?input_size ?timeout ?(progress = fun _ -> ()) () : entry list =
  List.map
    (fun (p : Overify_corpus.Programs.t) ->
      progress p.Overify_corpus.Programs.name;
      {
        pname = p.Overify_corpus.Programs.name;
        o0 = measure_one ?input_size ?timeout Costmodel.o0 p;
        o3 = measure_one ?input_size ?timeout Costmodel.o3 p;
        overify = measure_one ?input_size ?timeout Costmodel.overify p;
      })
    Overify_corpus.Programs.programs

type summary = {
  aggregate_reduction_vs_o3 : float;
      (** fraction of total (summed) -O3 time saved — the paper's "overall
          compilation and analysis time" metric *)
  aggregate_reduction_vs_o0 : float;
  avg_reduction_vs_o3 : float;   (** mean of per-program fractions *)
  avg_reduction_vs_o0 : float;
  max_speedup_vs_o3 : float;
  timeouts_o0 : int;
  timeouts_o3 : int;
  timeouts_overify : int;
  rescued_from_o3 : int;  (** programs finishing only under -OVERIFY *)
  bug_mismatches : string list;
}

let summarize (entries : entry list) : summary =
  (* keep experiments where at least one version finishes, like the paper *)
  let usable =
    List.filter
      (fun e -> e.o0.complete || e.o3.complete || e.overify.complete)
      entries
  in
  (* when a baseline times out, its measured time is a lower bound on the
     true time, so the computed reduction is a (sound) lower bound too —
     this mirrors the paper, which kept every experiment finishing on at
     least one version *)
  let reductions_o3 =
    List.filter_map
      (fun e ->
        if e.overify.complete && e.o3.total_s > 1e-4 then
          Some (1.0 -. (e.overify.total_s /. e.o3.total_s))
        else None)
      usable
  in
  let reductions_o0 =
    List.filter_map
      (fun e ->
        if e.overify.complete && e.o0.total_s > 1e-4 then
          Some (1.0 -. (e.overify.total_s /. e.o0.total_s))
        else None)
      usable
  in
  let avg l =
    if l = [] then 0.0 else List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)
  in
  let max_speedup =
    List.fold_left
      (fun acc e ->
        if e.overify.complete && e.overify.total_s > 1e-5 then
          max acc (e.o3.total_s /. e.overify.total_s)
        else acc)
      1.0 usable
  in
  let count f = List.length (List.filter f entries) in
  let total get = List.fold_left (fun a e -> a +. (get e).total_s) 0.0 usable in
  let t_ov = total (fun e -> e.overify)
  and t_o3 = total (fun e -> e.o3)
  and t_o0 = total (fun e -> e.o0) in
  (* the paper verified every bug found at -O0/-O3 is also found at -OVERIFY *)
  let bug_mismatches =
    List.concat_map
      (fun e ->
        let missing =
          List.filter
            (fun (kind, _) ->
              not (List.exists (fun (k, _) -> k = kind) e.overify.bugs))
            (e.o0.bugs @ e.o3.bugs)
        in
        List.map
          (fun (kind, fn) ->
            Printf.sprintf "%s: '%s' in %s found at -O0/-O3 but not -OVERIFY"
              e.pname kind fn)
          missing)
      entries
  in
  {
    aggregate_reduction_vs_o3 = (if t_o3 > 0. then 1.0 -. (t_ov /. t_o3) else 0.);
    aggregate_reduction_vs_o0 = (if t_o0 > 0. then 1.0 -. (t_ov /. t_o0) else 0.);
    avg_reduction_vs_o3 = avg reductions_o3;
    avg_reduction_vs_o0 = avg reductions_o0;
    max_speedup_vs_o3 = max_speedup;
    timeouts_o0 = count (fun e -> not e.o0.complete);
    timeouts_o3 = count (fun e -> not e.o3.complete);
    timeouts_overify = count (fun e -> not e.overify.complete);
    rescued_from_o3 =
      count (fun e -> e.overify.complete && not e.o3.complete);
    bug_mismatches;
  }

let print ?(input_size = 5) ?(timeout = 10.0) () =
  Report.section
    (Printf.sprintf
       "Figure 4: compile+analysis time per corpus program (%d symbolic \
        bytes, %.0fs budget per run)"
       input_size timeout);
  let entries =
    measure ~input_size ~timeout
      ~progress:(fun name -> Printf.printf "  analyzing %-10s...\n%!" name)
      ()
  in
  (* sort by gain of -OVERIFY over -O3, like the figure's right side *)
  let sorted =
    List.sort
      (fun a b ->
        compare
          (a.o3.total_s -. a.overify.total_s)
          (b.o3.total_s -. b.overify.total_s))
      entries
  in
  Report.table
    ([ "program"; "t(-O0) [s]"; "t(-O3) [s]"; "t(-OVERIFY) [s]";
       "fastest [s]"; "gain -OVERIFY"; "gain -O3"; "paths O0/O3/OV" ]
    :: List.map
         (fun e ->
           let fmt (c : cell) =
             if c.complete then Printf.sprintf "%.3f" c.total_s
             else Printf.sprintf ">%.1f (timeout)" c.total_s
           in
           let gain_ov = max 0.0 (e.o3.total_s -. e.overify.total_s) in
           let gain_o3 = max 0.0 (e.overify.total_s -. e.o3.total_s) in
           [
             e.pname;
             fmt e.o0;
             fmt e.o3;
             fmt e.overify;
             Printf.sprintf "%.3f" (min e.o3.total_s e.overify.total_s);
             Printf.sprintf "%.3f" gain_ov;
             Printf.sprintf "%.3f" gain_o3;
             Printf.sprintf "%d/%d/%d" e.o0.paths e.o3.paths e.overify.paths;
           ])
         sorted);
  let s = summarize entries in
  Printf.printf
    "\nSummary: -OVERIFY reduces overall compile+analysis time by %.0f%% vs \
     -O3 (paper: 58%%)\n\
    \         and by %.0f%% vs -O0 (paper: 63%%); max speedup vs -O3: %.0fx \
     (paper: 95x).\n\
    \         Per-program mean reduction: %.0f%% vs -O3, %.0f%% vs -O0 (the \
     mean is dominated by\n\
    \         trivial utilities whose total time is compile time — the \
     effect the paper notes\n\
    \         'vanishes in longer experiments').\n\
    \         Budget exhausted: %d at -O0, %d at -O3, %d at -OVERIFY; %d \
     programs finish only under -OVERIFY.\n"
    (100.0 *. s.aggregate_reduction_vs_o3)
    (100.0 *. s.aggregate_reduction_vs_o0)
    s.max_speedup_vs_o3
    (100.0 *. s.avg_reduction_vs_o3)
    (100.0 *. s.avg_reduction_vs_o0)
    s.timeouts_o0 s.timeouts_o3 s.timeouts_overify
    s.rescued_from_o3;
  (match s.bug_mismatches with
  | [] ->
      print_endline
        "Bug consistency: every bug found at -O0/-O3 is also found at \
         -OVERIFY (matches the paper)."
  | l ->
      print_endline "Bug consistency MISMATCHES:";
      List.iter (fun m -> print_endline ("  " ^ m)) l);
  (entries, s)
