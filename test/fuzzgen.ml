(** Random well-typed MiniC program generator, shared by the compiler
    fuzzer (test_fuzz) and the summary property suite (test_summary).

    Programs are built from integer arithmetic, bounded loops, arrays with
    in-bounds indices, function calls and I/O intrinsics, so every generated
    program is trap-free by construction except for division (always guarded
    by [| 1]).

    The [pure] mode restricts helper bodies to what the summary static gate
    accepts ({!Overify_summary.Summary.candidates}): integer expressions,
    branches and bounded loops only — no arrays, no I/O intrinsics — and
    lets helpers call previously generated helpers, so the callgraph (and
    hence the fingerprint cones the invalidation properties probe) has real
    depth. *)

type genv = {
  buf : Buffer.t;
  mutable indent : int;
  mutable vars : string list;       (* in-scope assignable int variables *)
  mutable rvars : string list;      (* read-only (loop counters) *)
  mutable arrays : (string * int) list;
  mutable fresh : int;
  rng : Random.State.t;
  mutable fuel : int;               (* bounds program size *)
  mutable pure : bool;              (* restrict to the summary static gate *)
  mutable callables : string list;  (* earlier helpers a pure body may call *)
}

let line g fmt =
  Printf.ksprintf
    (fun s ->
      Buffer.add_string g.buf (String.make (2 * g.indent) ' ');
      Buffer.add_string g.buf s;
      Buffer.add_char g.buf '\n')
    fmt

let fresh g prefix =
  g.fresh <- g.fresh + 1;
  Printf.sprintf "%s%d" prefix g.fresh

let pick g l = List.nth l (Random.State.int g.rng (List.length l))

let rec gen_expr g depth : string =
  let readable g = g.vars @ g.rvars in
  let leaf () =
    if g.pure then
      (* pure leaves: variables, literals and calls to earlier helpers *)
      match Random.State.int g.rng (if g.callables = [] then 3 else 4) with
      | 0 when readable g <> [] -> pick g (readable g)
      | 3 ->
          let f = pick g g.callables in
          let arg () =
            if readable g <> [] && Random.State.bool g.rng then
              pick g (readable g)
            else string_of_int (Random.State.int g.rng 64)
          in
          Printf.sprintf "%s(%s, %s)" f (arg ()) (arg ())
      | _ -> string_of_int (Random.State.int g.rng 200 - 100)
    else
      match Random.State.int g.rng 4 with
      | 0 when readable g <> [] -> pick g (readable g)
      | 1 -> string_of_int (Random.State.int g.rng 200 - 100)
      | 2 -> Printf.sprintf "__input(%d)" (Random.State.int g.rng 4)
      | _ -> (
          match g.arrays with
          | [] -> string_of_int (Random.State.int g.rng 64)
          | arrays ->
              let (a, n) = pick g arrays in
              (* in-bounds by masking with a power-of-two-minus-one < n *)
              let mask = if n >= 8 then 7 else if n >= 4 then 3 else 1 in
              let idx =
                if g.vars <> [] && Random.State.bool g.rng then pick g g.vars
                else Printf.sprintf "__input(%d)" (Random.State.int g.rng 4)
              in
              Printf.sprintf "%s[(%s) & %d]" a idx mask)
  in
  if depth = 0 || g.fuel <= 0 then leaf ()
  else begin
    g.fuel <- g.fuel - 1;
    match Random.State.int g.rng 10 with
    | 0 | 1 | 2 ->
        let op = pick g [ "+"; "-"; "*"; "&"; "|"; "^" ] in
        Printf.sprintf "(%s %s %s)" (gen_expr g (depth - 1)) op
          (gen_expr g (depth - 1))
    | 3 ->
        (* guarded division: divisor forced nonzero *)
        let op = pick g [ "/"; "%" ] in
        Printf.sprintf "(%s %s ((%s) | 1))" (gen_expr g (depth - 1)) op
          (gen_expr g (depth - 1))
    | 4 ->
        let op = pick g [ "<"; ">"; "<="; ">="; "=="; "!=" ] in
        Printf.sprintf "(%s %s %s)" (gen_expr g (depth - 1)) op
          (gen_expr g (depth - 1))
    | 5 ->
        let op = pick g [ "&&"; "||" ] in
        Printf.sprintf "(%s %s %s)" (gen_expr g (depth - 1)) op
          (gen_expr g (depth - 1))
    | 6 ->
        Printf.sprintf "(%s ? %s : %s)" (gen_expr g (depth - 1))
          (gen_expr g (depth - 1)) (gen_expr g (depth - 1))
    | 7 ->
        (* bounded shift *)
        Printf.sprintf "(%s %s ((%s) & 15))" (gen_expr g (depth - 1))
          (pick g [ "<<"; ">>" ])
          (gen_expr g (depth - 1))
    | 8 -> Printf.sprintf "(-(%s))" (gen_expr g (depth - 1))
    | _ -> Printf.sprintf "(!(%s))" (gen_expr g (depth - 1))
  end

let rec gen_stmt g depth =
  if g.fuel <= 0 then ()
  else begin
    g.fuel <- g.fuel - 1;
    match Random.State.int g.rng 11 with
    | 0 | 1 ->
        let v = fresh g "v" in
        line g "int %s = %s;" v (gen_expr g 2);
        g.vars <- v :: g.vars
    | 2 when g.vars <> [] ->
        line g "%s %s= %s;" (pick g g.vars)
          (pick g [ ""; "+"; "-"; "^"; "&"; "|" ])
          (gen_expr g 2)
    | 3 when depth > 0 ->
        line g "if (%s) {" (gen_expr g 2);
        g.indent <- g.indent + 1;
        gen_block g (depth - 1) (1 + Random.State.int g.rng 3);
        g.indent <- g.indent - 1;
        if Random.State.bool g.rng then begin
          line g "} else {";
          g.indent <- g.indent + 1;
          gen_block g (depth - 1) (1 + Random.State.int g.rng 2);
          g.indent <- g.indent - 1
        end;
        line g "}"
    | 4 when depth > 0 ->
        (* bounded counted loop *)
        let i = fresh g "i" in
        let n = 1 + Random.State.int g.rng 6 in
        line g "for (int %s = 0; %s < %d; %s++) {" i i n i;
        g.indent <- g.indent + 1;
        let saved = g.rvars in
        (* readable but never assignable: generated loops terminate *)
        g.rvars <- i :: g.rvars;
        gen_block g (depth - 1) (1 + Random.State.int g.rng 3);
        g.rvars <- saved;
        g.indent <- g.indent - 1;
        line g "}"
    | 5 when g.arrays <> [] ->
        let (a, n) = pick g g.arrays in
        let mask = if n >= 8 then 7 else if n >= 4 then 3 else 1 in
        line g "%s[(%s) & %d] = %s;" a (gen_expr g 1) mask (gen_expr g 2)
    | 6 when not g.pure ->
        line g "__output((%s) & 0xff);" (gen_expr g 2)
    | 7 when depth > 0 && g.vars <> [] ->
        (* while loop with a guaranteed-decreasing counter *)
        let c = fresh g "c" in
        line g "int %s = (%s) & 7;" c (gen_expr g 1);
        line g "while (%s > 0) {" c;
        g.indent <- g.indent + 1;
        gen_block g (depth - 1) (1 + Random.State.int g.rng 2);
        line g "%s--;" c;
        g.indent <- g.indent - 1;
        line g "}"
    | 8 when not g.pure ->
        let a = fresh g "arr" in
        let n = pick g [ 2; 4; 8 ] in
        line g "int %s[%d] = {%s};" a n
          (String.concat ", "
             (List.init n (fun _ -> string_of_int (Random.State.int g.rng 100))));
        g.arrays <- (a, n) :: g.arrays
    | _ when g.vars <> [] ->
        line g "%s = %s;" (pick g g.vars) (gen_expr g 3)
    | _ when g.pure ->
        let v = fresh g "v" in
        line g "int %s = %s;" v (gen_expr g 1);
        g.vars <- v :: g.vars
    | _ -> line g "__output('.');"
  end

and gen_block g depth count =
  (* blocks open a scope: declarations inside must not leak out *)
  let saved_vars = g.vars and saved_arrays = g.arrays in
  for _ = 1 to count do gen_stmt g depth done;
  g.vars <- saved_vars;
  g.arrays <- saved_arrays

let gen_function g name =
  line g "int %s(int p0, int p1) {" name;
  g.indent <- g.indent + 1;
  let saved_vars = g.vars and saved_arrays = g.arrays in
  let saved_rvars = g.rvars in
  g.vars <- [ "p0"; "p1" ];
  g.rvars <- [];
  g.arrays <- [];
  gen_block g 2 (2 + Random.State.int g.rng 4);
  line g "return %s;" (gen_expr g 2);
  g.vars <- saved_vars;
  g.rvars <- saved_rvars;
  g.arrays <- saved_arrays;
  g.indent <- g.indent - 1;
  line g "}"

let make_genv seed =
  {
    buf = Buffer.create 1024;
    indent = 0;
    vars = [];
    rvars = [];
    arrays = [];
    fresh = 0;
    rng = Random.State.make [| seed |];
    fuel = 120;
    pure = false;
    callables = [];
  }

let gen_program seed : string =
  let g = make_genv seed in
  (* a couple of helper functions main can call *)
  let helpers =
    List.init (Random.State.int g.rng 3) (fun i -> Printf.sprintf "helper%d" i)
  in
  List.iter (fun h -> gen_function g h) helpers;
  line g "int main(void) {";
  g.indent <- 1;
  line g "int acc = 0;";
  g.vars <- [ "acc" ];
  gen_block g 3 (4 + Random.State.int g.rng 6);
  List.iter
    (fun h ->
      line g "acc += %s(%s, %s);" h (gen_expr g 1) (gen_expr g 1))
    helpers;
  line g "return acc & 0xff;";
  g.indent <- 0;
  line g "}";
  Buffer.contents g.buf

(** A program whose helpers all pass the summary static gate: pure integer
    functions (possibly calling earlier helpers) plus a [main] that feeds
    them input bytes and may use the full statement language.  Returns the
    source and the helper names in generation (bottom-up) order. *)
let gen_pure_program ?(helpers = 3) seed : string * string list =
  let g = make_genv seed in
  g.fuel <- 60 + (20 * helpers);
  let names = List.init helpers (fun i -> Printf.sprintf "helper%d" i) in
  List.iter
    (fun h ->
      g.pure <- true;
      gen_function g h;
      g.pure <- false;
      (* later helpers may call this one: the callgraph gets depth *)
      g.callables <- g.callables @ [ h ])
    names;
  line g "int main(void) {";
  g.indent <- 1;
  line g "int acc = 0;";
  g.vars <- [ "acc" ];
  (* symbolic arguments so summaries are instantiated under real caller
     contexts, plus accumulator feedback so helper results flow onward *)
  List.iteri
    (fun i h -> line g "acc += %s(__input(%d), acc);" h (i land 3))
    names;
  gen_block g 2 (2 + Random.State.int g.rng 3);
  List.iter (fun h -> line g "acc += %s(acc, 7);" h) names;
  line g "return acc & 0xff;";
  g.indent <- 0;
  line g "}";
  (Buffer.contents g.buf, names)
