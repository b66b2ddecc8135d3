(** Minimal JSON parser/printer for the serve protocol.  See json.mli. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* ---------------- printing ---------------- *)

let escape = Overify_obs.Obs.json_escape

let rec to_string (v : t) : string =
  match v with
  | Null -> "null"
  | Bool b -> string_of_bool b
  | Num f ->
      (* integers print without a fractional part, like the hand emitters *)
      if Float.is_integer f && Float.abs f < 1e15 then
        Printf.sprintf "%.0f" f
      else Printf.sprintf "%.17g" f
  | Str s -> "\"" ^ escape s ^ "\""
  | Arr xs -> "[" ^ String.concat ", " (List.map to_string xs) ^ "]"
  | Obj kvs ->
      "{"
      ^ String.concat ", "
          (List.map (fun (k, v) -> "\"" ^ escape k ^ "\": " ^ to_string v) kvs)
      ^ "}"

(* ---------------- parsing ---------------- *)

exception Bad of int * string

(* [member], when given, hears each member of the top-level object as it
   is read: its key and the byte span of its value.  Values are then
   checked but not built (each reads as [Null]), so a large string member
   costs no copy.  Plain [parse] builds everything and records no
   offsets. *)
let parse_doc ?member (s : string) : (t, string) result =
  let keep = Option.is_none member in
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let fail msg = raise (Bad (!pos, msg)) in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %c" c)
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail ("expected " ^ word)
  in
  let hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape";
    let v = ref 0 in
    for i = !pos to !pos + 3 do
      let d =
        match s.[i] with
        | '0' .. '9' as c -> Char.code c - Char.code '0'
        | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
        | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
        | _ -> fail "bad \\u escape"
      in
      v := (!v * 16) + d
    done;
    pos := !pos + 4;
    !v
  in
  let parse_string keep =
    expect '"';
    let buf = Buffer.create 16 in
    let add c = if keep then Buffer.add_char buf c in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      advance ();
      match c with
      | '"' -> Buffer.contents buf
      | '\\' -> (
          if !pos >= n then fail "unterminated escape";
          let e = s.[!pos] in
          advance ();
          (match e with
          | '"' -> add '"'
          | '\\' -> add '\\'
          | '/' -> add '/'
          | 'b' -> add '\b'
          | 'f' -> add '\012'
          | 'n' -> add '\n'
          | 'r' -> add '\r'
          | 't' -> add '\t'
          | 'u' ->
              let v = hex4 () in
              if v < 0x100 then add (Char.chr v)
              else begin
                (* non-byte code point: encode as UTF-8 *)
                add (Char.chr (0xe0 lor (v lsr 12)));
                add (Char.chr (0x80 lor ((v lsr 6) land 0x3f)));
                add (Char.chr (0x80 lor (v land 0x3f)))
              end
          | _ -> fail "bad escape");
          go ())
      | c ->
          add c;
          go ()
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    let digits () =
      let seen = ref false in
      let rec go () =
        match peek () with
        | Some ('0' .. '9') ->
            seen := true;
            advance ();
            go ()
        | _ -> ()
      in
      go ();
      if not !seen then fail "expected digit"
    in
    (match peek () with Some '-' -> advance () | _ -> ());
    digits ();
    (match peek () with
    | Some '.' ->
        advance ();
        digits ()
    | _ -> ());
    (match peek () with
    | Some ('e' | 'E') ->
        advance ();
        (match peek () with Some ('+' | '-') -> advance () | _ -> ());
        digits ()
    | _ -> ());
    if not keep then Null
    else
      match float_of_string_opt (String.sub s start (!pos - start)) with
      | Some f -> Num f
      | None -> fail "bad number"
  in
  let rec parse_value ?member () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '"' ->
        let str = parse_string keep in
        if keep then Str str else Null
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let kvs = ref [] in
          let rec go () =
            skip_ws ();
            let k = parse_string true in
            skip_ws ();
            expect ':';
            skip_ws ();
            let start = !pos in
            let v = parse_value () in
            (match member with Some f -> f k start !pos | None -> ());
            if keep then kvs := (k, v) :: !kvs;
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                go ()
            | Some '}' -> advance ()
            | _ -> fail "expected , or } in object"
          in
          go ();
          if keep then Obj (List.rev !kvs) else Null
        end
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          Arr []
        end
        else begin
          let xs = ref [] in
          let rec go () =
            let v = parse_value () in
            if keep then xs := v :: !xs;
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                go ()
            | Some ']' -> advance ()
            | _ -> fail "expected , or ] in array"
          in
          go ();
          if keep then Arr (List.rev !xs) else Null
        end
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> fail (Printf.sprintf "unexpected character %C" c)
  in
  try
    let v = parse_value ?member () in
    skip_ws ();
    if !pos <> n then Error (Printf.sprintf "trailing bytes at offset %d" !pos)
    else Ok v
  with
  | Bad (off, msg) -> Error (Printf.sprintf "%s at offset %d" msg off)
  | Stack_overflow -> Error "document nests too deeply"

let parse s = parse_doc s

let member_spans s =
  let acc = ref [] in
  let member k start stop = acc := (k, (start, stop)) :: !acc in
  Result.map (fun _ -> List.rev !acc) (parse_doc ~member s)

(* ---------------- accessors ---------------- *)

let mem v k =
  match v with Obj kvs -> List.assoc_opt k kvs | _ -> None

let str = function Str s -> Some s | _ -> None
let num = function Num f -> Some f | _ -> None

let int_ = function
  | Num f when Float.is_integer f -> Some (int_of_float f)
  | _ -> None

let bool_ = function Bool b -> Some b | _ -> None
