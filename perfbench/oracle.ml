(** The benchmark's correctness oracle.

    A committed record ([perfbench/expected.tsv]) holds the expected
    verdict of every cell a workload can run: paths, bug kinds, the
    multiset of exit codes over completed paths, and blocks covered.  A
    run compares each verdict it produces against the record, and replays
    the witnesses the engine reports through the concrete interpreter.
    Every disagreement is one wrong verdict. *)

open Overify

type verdict = {
  paths : int;
  blocks : int;
  bugs : string list;  (** ["kind@function"], sorted, unique *)
  exits : (int64 * int) list option;
      (** exit code and the number of paths ending with it, sorted; [None]
          when the source (a served result) does not report exit codes *)
}

let key ~prog ~level ~n = Printf.sprintf "%s/%s/%d" prog level n

let bug_key ~kind ~fn = kind ^ "@" ^ fn

let exit_multiset (codes : (string * int64) list) =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (_, c) ->
      Hashtbl.replace tbl c (1 + Option.value ~default:0 (Hashtbl.find_opt tbl c)))
    codes;
  List.sort compare (Hashtbl.fold (fun c k acc -> (c, k) :: acc) tbl [])

let of_result (r : Engine.result) =
  {
    paths = r.Engine.paths;
    blocks = r.Engine.blocks_covered;
    bugs =
      List.sort_uniq compare
        (List.map
           (fun (b : Engine.bug) -> bug_key ~kind:b.Engine.kind ~fn:b.Engine.at_function)
           r.Engine.bugs);
    exits = Some (exit_multiset r.Engine.exit_codes);
  }

(** Does [got] agree with [want] on every field [got] reports? *)
let agrees ~want got =
  got.paths = want.paths && got.blocks = want.blocks && got.bugs = want.bugs
  && match got.exits with None -> true | Some e -> want.exits = Some e

(* ---------------- the record file ---------------- *)

(* One cell per line, tab-separated:
   prog  level  n  paths  blocks  bug;bug;..  code:count,code:count,.. *)

let line_of ~prog ~level ~n v =
  Printf.sprintf "%s\t%s\t%d\t%d\t%d\t%s\t%s" prog level n v.paths v.blocks
    (String.concat ";" v.bugs)
    (String.concat ","
       (List.map
          (fun (c, k) -> Printf.sprintf "%Ld:%d" c k)
          (Option.value ~default:[] v.exits)))

let parse_line line =
  match String.split_on_char '\t' line with
  | [ prog; level; n; paths; blocks; bugs; exits ] ->
      let split sep s = if s = "" then [] else String.split_on_char sep s in
      let exit_of s =
        match String.split_on_char ':' s with
        | [ c; k ] -> (Int64.of_string c, int_of_string k)
        | _ -> failwith ("bad exit entry " ^ s)
      in
      ( key ~prog ~level ~n:(int_of_string n),
        {
          paths = int_of_string paths;
          blocks = int_of_string blocks;
          bugs = split ';' bugs;
          exits = Some (List.map exit_of (split ',' exits));
        } )
  | _ -> failwith ("bad expected-verdict line: " ^ line)

let load path : (string, verdict) Hashtbl.t =
  let ic = open_in path in
  let tbl = Hashtbl.create 512 in
  (try
     while true do
       let line = input_line ic in
       if line <> "" && line.[0] <> '#' then begin
         let (k, v) = parse_line line in
         Hashtbl.replace tbl k v
       end
     done
   with End_of_file -> ());
  close_in ic;
  tbl

(* ---------------- witness replay ---------------- *)

(** Does a bug witness trap on both builds? *)
let traps ~build ~o0 input =
  let t m = (Interp.run m ~input).Interp.trap <> None in
  t build && t o0

(** Replay every completed-path witness on the level's build and on the
    -O0 build: both must exit cleanly with the claimed code.  Every bug
    witness must trap on both builds.  Returns the number of failed
    replays. *)
let replay ~build ~o0 (r : Engine.result) =
  let exits_ok input code =
    let ok m =
      let x = Interp.run m ~input in
      x.Interp.trap = None && x.Interp.exit_code = code
    in
    ok build && ok o0
  in
  let bad = ref 0 in
  List.iter
    (fun (input, code) -> if not (exits_ok input code) then incr bad)
    r.Engine.exit_codes;
  List.iter
    (fun (b : Engine.bug) ->
      if not (traps ~build ~o0 b.Engine.input) then incr bad)
    r.Engine.bugs;
  !bad

(** Concrete differential on a generated input: the level's build must
    behave like the -O0 build (same exit code and output, or both trap). *)
let same_behaviour (a : Interp.result) (b : Interp.result) =
  match (a.Interp.trap, b.Interp.trap) with
  | None, None ->
      a.Interp.exit_code = b.Interp.exit_code && a.Interp.output = b.Interp.output
  | Some _, Some _ -> true
  | _ -> false
