type kind =
  | Solver_timeout
  | Store_corrupt
  | Store_partial
  | Alloc_fail
  | Worker_crash
  | Kill
  | Solver_stall

exception Crash of string
exception Killed of string

let kind_name = function
  | Solver_timeout -> "timeout"
  | Store_corrupt -> "corrupt"
  | Store_partial -> "partial"
  | Alloc_fail -> "alloc"
  | Worker_crash -> "crash"
  | Kill -> "kill"
  | Solver_stall -> "stall"

let all_kinds =
  [
    Solver_timeout;
    Store_corrupt;
    Store_partial;
    Alloc_fail;
    Worker_crash;
    Kill;
    Solver_stall;
  ]

let kind_index = function
  | Solver_timeout -> 0
  | Store_corrupt -> 1
  | Store_partial -> 2
  | Alloc_fail -> 3
  | Worker_crash -> 4
  | Kill -> 5
  | Solver_stall -> 6

let nkinds = 7

type site = {
  triggers : int list; (* sorted visit numbers (1-based) at which to fire *)
  visits : int Atomic.t;
  fired : int Atomic.t;
}

type t = { spec : string; sites : site array (* indexed by kind_index *) }

let spec t = t.spec

(* Seeded expansion: a small LCG over {timeout, alloc, crash}.  Store
   corruption and kill are opt-in only — random kills would make every
   seeded sweep a resume test, and store faults are invisible without a
   --cache-dir. *)
let expand_seed seed count =
  let state = ref (seed land 0x3FFFFFFF) in
  let next () =
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    !state
  in
  List.init count (fun _ ->
      let k =
        match next () mod 3 with
        | 0 -> Solver_timeout
        | 1 -> Alloc_fail
        | _ -> Worker_crash
      in
      (k, 1 + (next () mod 400)))

let kind_of_site_name = function
  | "timeout" -> Some Solver_timeout
  | "corrupt" -> Some Store_corrupt
  | "partial" -> Some Store_partial
  | "alloc" -> Some Alloc_fail
  | "crash" -> Some Worker_crash
  | "kill" -> Some Kill
  | "stall" -> Some Solver_stall
  | _ -> None

let parse s =
  let entries =
    String.split_on_char ',' (String.map (function ';' -> ',' | c -> c) s)
    |> List.map String.trim
    |> List.filter (fun e -> e <> "")
  in
  let exception Bad of string in
  try
    if entries = [] then raise (Bad "empty fault spec");
    let events =
      List.concat_map
        (fun entry ->
          let seeded s count_s =
            let seed =
              match int_of_string_opt s with
              | Some seed -> seed
              | None -> raise (Bad (Printf.sprintf "bad seed in %S" entry))
            in
            let count =
              match count_s with
              | None -> 3
              | Some c -> (
                  match int_of_string_opt c with
                  | Some n when n > 0 -> n
                  | _ -> raise (Bad (Printf.sprintf "bad seed count in %S" entry)))
            in
            expand_seed seed count
          in
          match String.split_on_char ':' entry with
          | [ "seed"; s ] -> seeded s None
          | [ "seed"; s; c ] -> seeded s (Some c)
          | _ -> (
              match String.index_opt entry '@' with
              | None ->
                  raise
                    (Bad
                       (Printf.sprintf
                          "bad fault entry %S (expected site@N or seed:S[:K])"
                          entry))
              | Some i -> (
                  let site = String.sub entry 0 i in
                  let n = String.sub entry (i + 1) (String.length entry - i - 1) in
                  match (kind_of_site_name site, int_of_string_opt n) with
                  | Some k, Some v when v >= 1 -> [ (k, v) ]
                  | Some _, _ ->
                      raise
                        (Bad (Printf.sprintf "bad visit count in %S (want >= 1)" entry))
                  | None, _ ->
                      raise (Bad (Printf.sprintf "unknown fault site %S" site)))))
        entries
    in
    let sites =
      Array.init nkinds (fun i ->
          let triggers =
            List.filter_map
              (fun (k, v) -> if kind_index k = i then Some v else None)
              events
            |> List.sort_uniq compare
          in
          { triggers; visits = Atomic.make 0; fired = Atomic.make 0 })
    in
    Ok { spec = s; sites }
  with Bad msg -> Error msg

let fire sched kind =
  match sched with
  | None -> false
  | Some t ->
      let s = t.sites.(kind_index kind) in
      if s.triggers = [] then false
      else
        let visit = Atomic.fetch_and_add s.visits 1 + 1 in
        if List.mem visit s.triggers then (
          Atomic.incr s.fired;
          true)
        else false

let injected t =
  List.map
    (fun k -> (kind_name k, Atomic.get t.sites.(kind_index k).fired))
    all_kinds

let injected_total t =
  Array.fold_left (fun acc s -> acc + Atomic.get s.fired) 0 t.sites
