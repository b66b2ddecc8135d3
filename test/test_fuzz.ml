(** Compiler fuzzing: generate random well-typed MiniC programs (via the
    shared {!Fuzzgen} generator) and check that all four optimization
    levels agree with the -O0 oracle on random inputs (Csmith-style
    differential testing, scaled to MiniC).

    Failures are shrunk before reporting (greedy statement/region deletion
    plus literal simplification, see {!shrink_program}), and a
    translation-validation mode proves each pass application sound with the
    symbolic engine — set OVERIFY_TV=1 for the wide sweep. *)

module Frontend = Overify_minic.Frontend
module Interp = Overify_interp.Interp
module Costmodel = Overify_opt.Costmodel
module Pipeline = Overify_opt.Pipeline

let gen_program = Fuzzgen.gen_program

(* ------------- the differential property ------------- *)

type mismatch = {
  mm_level : string;
  mm_input : string;
  mm_exit0 : int64;
  mm_exit : int64;
  mm_out0 : string;
  mm_out : string;
}

let inputs_for seed =
  [ ""; "a"; "\000\255"; "zz9 ";
    String.init 4 (fun i -> Char.chr (((seed * 31) + (i * 77)) land 0xff)) ]

(** Compile [src] at every level and run each against the -O0 oracle on
    [inputs]; the first disagreement found, if any.  Raises
    [Frontend.Compile_error] on an invalid program. *)
let find_mismatch ~inputs src : mismatch option =
  let m0 = Frontend.compile_source src in
  let compiled =
    List.map
      (fun level ->
        let r = Pipeline.optimize level m0 in
        List.iter Overify_ir.Verify.check_exn r.Pipeline.modul.Overify_ir.Ir.funcs;
        (level.Costmodel.name, r.Pipeline.modul))
      Costmodel.all
  in
  match compiled with
  | [] -> None
  | (_, base) :: rest ->
      List.find_map
        (fun input ->
          let r0 = Interp.run ~fuel:2_000_000 base ~input in
          (* speculation can make -OVERIFY execute more instructions than
             -O0; only compare runs comfortably inside the budget *)
          if r0.Interp.trap = Some Interp.Out_of_fuel || r0.Interp.insts > 500_000
          then None
          else
            List.find_map
              (fun (name, m) ->
                let r = Interp.run ~fuel:5_000_000 m ~input in
                if
                  r.Interp.exit_code <> r0.Interp.exit_code
                  || r.Interp.output <> r0.Interp.output
                  || (r.Interp.trap <> None) <> (r0.Interp.trap <> None)
                then
                  Some
                    {
                      mm_level = name;
                      mm_input = input;
                      mm_exit0 = r0.Interp.exit_code;
                      mm_exit = r.Interp.exit_code;
                      mm_out0 = r0.Interp.output;
                      mm_out = r.Interp.output;
                    }
                else None)
              rest)
        inputs

(* ------------- counterexample shrinker ------------- *)

(* When the differential property fails, the generated program is usually a
   page of irrelevant arithmetic around a two-line bug.  Before reporting,
   greedily delete statements (single brace-balanced lines, or whole
   brace-delimited regions) and simplify integer literals to 0, keeping any
   candidate that still compiles and still reproduces a mismatch on the same
   seed-derived inputs. *)

let split_lines s = String.split_on_char '\n' s

let brace_delta line =
  String.fold_left
    (fun d c -> match c with '{' -> d + 1 | '}' -> d - 1 | _ -> d)
    0 line

(** Candidate deletions: a brace-neutral line alone, or an opening line
    together with everything through its matching close. *)
let deletion_regions lines =
  let n = Array.length lines in
  let regions = ref [] in
  for i = 0 to n - 1 do
    let d = brace_delta lines.(i) in
    if d = 0 then regions := (i, i) :: !regions
    else if d > 0 then begin
      let depth = ref d and j = ref (i + 1) in
      while !depth > 0 && !j < n do
        depth := !depth + brace_delta lines.(!j);
        if !depth > 0 then incr j
      done;
      if !depth = 0 && !j < n then regions := (i, !j) :: !regions
    end
  done;
  List.rev !regions

let drop_region lines (i, j) =
  Array.to_list lines
  |> List.filteri (fun k _ -> k < i || k > j)
  |> String.concat "\n"

let is_ident_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
  || c = '_'

(** Greedy shrink loop, bounded by total compile attempts so a stubborn
    counterexample cannot stall the suite. *)
let shrink_program ~reproduces src =
  let attempts = ref 0 in
  let max_attempts = 400 in
  let try_candidate cand =
    incr attempts;
    !attempts <= max_attempts && reproduces cand
  in
  (* phase 1: delete statements and whole regions, largest first *)
  let cur = ref src in
  let progress = ref true in
  while !progress && !attempts < max_attempts do
    progress := false;
    let lines = Array.of_list (split_lines !cur) in
    let regions =
      List.sort
        (fun (i1, j1) (i2, j2) -> compare (j2 - i2) (j1 - i1))
        (deletion_regions lines)
    in
    (try
       List.iter
         (fun r ->
           let cand = drop_region lines r in
           if cand <> !cur && try_candidate cand then begin
             cur := cand;
             progress := true;
             raise Exit
           end)
         regions
     with Exit -> ())
  done;
  (* phase 2: rewrite decimal literals to 0 where the bug survives *)
  let i = ref 0 in
  while !i < String.length !cur && !attempts < max_attempts do
    let s = !cur in
    if
      s.[!i] >= '0' && s.[!i] <= '9'
      && ((!i = 0) || not (is_ident_char s.[!i - 1]))
    then begin
      let j = ref !i in
      while !j < String.length s && s.[!j] >= '0' && s.[!j] <= '9' do
        incr j
      done;
      if String.sub s !i (!j - !i) <> "0" then begin
        let cand =
          String.sub s 0 !i ^ "0" ^ String.sub s !j (String.length s - !j)
        in
        if try_candidate cand then begin
          cur := cand;
          incr i
        end
        else i := !j
      end
      else i := !j
    end
    else incr i
  done;
  !cur

(* shrinker self-test: inject a silent miscompilation through the pipeline's
   fault-injection hook and check the minimizer strips the noise while the
   bug keeps reproducing *)

module I = Overify_ir.Ir

let flip_first_add (fn : I.func) : I.func =
  let flipped = ref false in
  let blocks =
    List.map
      (fun (b : I.block) ->
        {
          b with
          I.insts =
            List.map
              (fun i ->
                match i with
                | I.Bin (d, I.Add, ty, a, v) when not !flipped ->
                    flipped := true;
                    I.Bin (d, I.Sub, ty, a, v)
                | i -> i)
              b.I.insts;
        })
      fn.I.blocks
  in
  { fn with I.blocks }

let test_shrinker_minimizes () =
  let src =
    String.concat "\n"
      [
        "int dead(int p0, int p1) {";
        "  int w = p0 * 3;";
        "  return w * p1;";
        "}";
        "int main(void) {";
        "  int a = __input(0);";
        "  int junk = 5;";
        "  junk = junk * 3;";
        "  __output(junk & 0xff);";
        "  int r = a + 7;";
        "  return r & 0xff;";
        "}";
      ]
  in
  let inputs = [ "a"; "\005" ] in
  Fun.protect
    ~finally:(fun () -> Pipeline.sabotage := None)
    (fun () ->
      Pipeline.sabotage := Some ("constfold", flip_first_add);
      let reproduces s =
        match find_mismatch ~inputs s with
        | Some _ -> true
        | None | (exception _) -> false
      in
      Alcotest.(check bool) "sabotaged program mismatches" true (reproduces src);
      let small = shrink_program ~reproduces src in
      Alcotest.(check bool) "shrunk still reproduces" true (reproduces small);
      let n0 = List.length (split_lines src)
      and n1 = List.length (split_lines small) in
      Alcotest.(check bool)
        (Printf.sprintf "shrunk from %d to %d lines" n0 n1)
        true (n1 < n0))

let check_program seed =
  let src = gen_program seed in
  let inputs = inputs_for seed in
  match
    try Ok (find_mismatch ~inputs src)
    with Frontend.Compile_error msg -> Error msg
  with
  | Error msg ->
      QCheck2.Test.fail_reportf "seed %d: generated invalid program: %s\n%s"
        seed msg src
  | Ok None -> true
  | Ok (Some mm) ->
      let reproduces s =
        match find_mismatch ~inputs s with
        | Some _ -> true
        | None | (exception _) -> false
      in
      let small = shrink_program ~reproduces src in
      let mm =
        match try find_mismatch ~inputs small with _ -> None with
        | Some m -> m
        | None -> mm
      in
      QCheck2.Test.fail_reportf
        "seed %d input %S: %s disagrees with -O0\n\
         exit %Ld vs %Ld; out %S vs %S\n\
         --- minimized program (%d -> %d lines; rerun with this seed) ---\n%s"
        seed mm.mm_input mm.mm_level mm.mm_exit0 mm.mm_exit mm.mm_out0
        mm.mm_out
        (List.length (split_lines src))
        (List.length (split_lines small))
        small

let fuzz_differential =
  QCheck2.Test.make ~name:"random programs agree across all levels" ~count:60
    QCheck2.Gen.(int_range 1 1_000_000)
    check_program

(* symbolic soundness on random programs: every path witness replays *)
let fuzz_symex_soundness =
  QCheck2.Test.make ~name:"random programs: symex witnesses replay" ~count:15
    QCheck2.Gen.(int_range 1 100_000)
    (fun seed ->
      let src = gen_program seed in
      let m0 = Frontend.compile_source src in
      let m =
        (Pipeline.optimize Costmodel.overify m0).Pipeline.modul
      in
      let r =
        Overify_symex.Engine.run
          ~config:
            { Overify_symex.Engine.default_config with
              input_size = 2; timeout = 10.0; max_paths = 300 }
          m
      in
      List.for_all
        (fun (input, code) ->
          let rr = Interp.run ~fuel:2_000_000 m ~input in
          if rr.Interp.trap = None && rr.Interp.exit_code <> code then
            QCheck2.Test.fail_reportf
              "seed %d: witness %S predicted exit %Ld, concrete run gave %Ld\n%s"
              seed input code rr.Interp.exit_code src
          else true)
        r.Overify_symex.Engine.exit_codes)

(* symex differential mode: a generated (trap-free) program is explored
   sequentially and in parallel; for complete runs the two must agree
   exactly, and every witness from either exploration must replay through
   the concrete interpreter with the predicted exit code — symbolic
   execution checked against the interpreter as an oracle *)
let fuzz_symex_differential =
  QCheck2.Test.make ~name:"random programs: dfs = parallel, witnesses replay"
    ~count:10
    QCheck2.Gen.(int_range 100_001 200_000)
    (fun seed ->
      let src = gen_program seed in
      let m0 = Frontend.compile_source src in
      let m = (Pipeline.optimize Costmodel.overify m0).Pipeline.modul in
      let explore searcher =
        Overify_symex.Engine.run
          ~config:
            { Overify_symex.Engine.default_config with
              input_size = 2; timeout = 10.0; max_paths = 300; searcher }
          m
      in
      let seq = explore `Dfs in
      let par = explore (`Parallel 2) in
      let open Overify_symex.Engine in
      if seq.complete && par.complete then begin
        if seq.paths <> par.paths then
          QCheck2.Test.fail_reportf
            "seed %d: dfs found %d paths, parallel %d\n%s" seed seq.paths
            par.paths src;
        if seq.exit_codes <> par.exit_codes then
          QCheck2.Test.fail_reportf
            "seed %d: dfs and parallel disagree on exit codes\n%s" seed src;
        if seq.bugs <> par.bugs then
          QCheck2.Test.fail_reportf
            "seed %d: dfs and parallel disagree on bugs\n%s" seed src;
        if seq.blocks_covered <> par.blocks_covered then
          QCheck2.Test.fail_reportf
            "seed %d: dfs covered %d blocks, parallel %d\n%s" seed
            seq.blocks_covered par.blocks_covered src
      end;
      List.for_all
        (fun (input, code) ->
          let rr = Interp.run ~fuel:2_000_000 m ~input in
          if rr.Interp.trap = None && rr.Interp.exit_code <> code then
            QCheck2.Test.fail_reportf
              "seed %d: parallel witness %S predicted exit %Ld, concrete \
               run gave %Ld\n%s"
              seed input code rr.Interp.exit_code src
          else true)
        (seq.exit_codes @ par.exit_codes))

(* translation-validation mode: every pass application on a generated
   program is proved (or differentially cross-checked) against its input
   with lib/tv's product construction.  The default run keeps a small slice
   at -OVERIFY so `dune runtest` stays fast; OVERIFY_TV=1 widens the sweep
   to more seeds at every level. *)

module Tv = Overify_tv.Tv

let tv_deep = Sys.getenv_opt "OVERIFY_TV" = Some "1"

let tv_config =
  {
    Tv.default_config with
    Overify_symex.Engine.input_size = 2;
    max_paths = 200;
    max_insts = 300_000;
    timeout = 0.75;
  }

let tv_check_seed seed =
  let src = gen_program seed in
  let m0 = Frontend.compile_source src in
  let levels = if tv_deep then Costmodel.all else [ Costmodel.overify ] in
  List.for_all
    (fun (cm : Costmodel.t) ->
      let (_, report) = Tv.validate ~config:tv_config cm m0 in
      match Tv.first_offender report with
      | Some r ->
          QCheck2.Test.fail_reportf
            "seed %d @ %s: pass %s on %s miscompiles:\n%s\n--- program ---\n%s"
            seed cm.Costmodel.name r.Tv.pass r.Tv.fn
            (Tv.string_of_verdict r.Tv.outcome.Tv.verdict)
            src
      | None -> true)
    levels

let fuzz_translation_validation =
  QCheck2.Test.make
    ~name:
      (if tv_deep then
         "random programs: every pass application validates (all levels)"
       else "random programs: every pass application validates (slice)")
    ~count:(if tv_deep then 25 else 3)
    QCheck2.Gen.(int_range 200_001 300_000)
    tv_check_seed

let () =
  Alcotest.run "fuzz"
    [
      ( "differential",
        [ QCheck_alcotest.to_alcotest fuzz_differential ] );
      ( "symex soundness",
        [ QCheck_alcotest.to_alcotest fuzz_symex_soundness ] );
      ( "symex differential",
        [ QCheck_alcotest.to_alcotest fuzz_symex_differential ] );
      ( "shrinker",
        [
          Alcotest.test_case "minimizes a sabotaged counterexample" `Quick
            test_shrinker_minimizes;
        ] );
      ( "translation validation",
        [ QCheck_alcotest.to_alcotest fuzz_translation_validation ] );
    ]
