(** Tables of pinned digests ([test/*_digests.tsv]): one row per cell,
    key columns first, MD5 columns after, ['#'] lines are comments.  The
    rows a suite recomputes must equal the committed table.  On a mismatch
    the fresh table is written next to the test executable as
    [<name>.fresh.tsv] and the failure names the differing cells;
    recording an intended change is one copy. *)

let check ~name ~header ~keys ~what (fresh : string list) =
  let here = Filename.dirname Sys.executable_name in
  let table = Filename.concat here (name ^ ".tsv") in
  let pinned =
    if not (Sys.file_exists table) then []
    else
      In_channel.with_open_text table In_channel.input_all
      |> String.split_on_char '\n'
      |> List.filter (fun l -> l <> "" && l.[0] <> '#')
  in
  if fresh <> pinned then begin
    (* a cell is named by its first [keys] columns *)
    let cell row =
      String.split_on_char '\t' row
      |> List.filteri (fun i _ -> i < keys)
      |> String.concat " "
    in
    let differing =
      List.filter (fun r -> not (List.mem r pinned)) fresh
      @ List.filter (fun r -> not (List.mem r fresh)) pinned
      |> List.map cell |> List.sort_uniq compare
    in
    let out = Filename.concat here (name ^ ".fresh.tsv") in
    Out_channel.with_open_text out (fun oc ->
        List.iter (fun l -> output_string oc (l ^ "\n")) (header :: fresh));
    let n = List.length differing in
    Alcotest.failf
      "%s differs from test/%s.tsv in %d cell(s): %s%s\nthe fresh table is \
       %s; if the change is intended, copy it over test/%s.tsv"
      what name n
      (String.concat ", " (List.filteri (fun i _ -> i < 12) differing))
      (if n > 12 then Printf.sprintf " and %d more" (n - 12) else "")
      out name
  end
