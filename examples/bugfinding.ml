(** Bug finding: the engine flags memory-safety violations, division by
    zero and assertion failures on every feasible path, and produces a
    concrete input reproducing each — and, as the paper verified for its
    prototype, the bugs found at [-O0]/[-O3] are also found at [-OVERIFY].

    Run with: [dune exec examples/bugfinding.exe] *)

module O = Overify

(* A parser with two planted bugs:
   - writing the NUL terminator out of bounds when the field is exactly
     8 bytes long (classic off-by-one);
   - dividing by the parsed field width without checking for zero. *)
let buggy_source = {|
int parse_field(const char *s, char *out) {
  int i = 0;
  while (s[i] && s[i] != ':' && i < 8) {
    out[i] = s[i];
    i++;
  }
  out[i] = 0;            /* BUG: i may be 8, out has 8 bytes */
  return i;
}

int main(void) {
  char buf[16];
  char field[8];
  int n = read_input(buf, 16);
  if (n == 0) return 0;
  int w = parse_field(buf, field);
  int cols = 64 / w;     /* BUG: w = 0 when the input starts with ':' */
  return cols;
}
|}

let config = { O.Engine.default_config with input_size = 8; timeout = 15.0 }

let () =
  print_endline "== Bug finding across optimization levels ==\n";
  List.iter
    (fun (level : O.Costmodel.t) ->
      let m = O.compile ~level buggy_source in
      let v = O.Engine.run ~config m in
      Printf.printf "%-9s %d paths%s, %d bug(s) found in %.1f ms:\n%!"
        level.O.Costmodel.name v.O.Engine.paths
        (if v.O.Engine.complete then "" else "+ (budget hit)")
        (List.length v.O.Engine.bugs)
        (v.O.Engine.time *. 1000.);
      List.iter
        (fun (b : O.Engine.bug) ->
          Printf.printf "    %-45s reproduced by input \"%s\"\n" b.O.Engine.kind
            (String.concat ""
               (List.map
                  (fun c ->
                    if c >= ' ' && c < '\127' then String.make 1 c
                    else Printf.sprintf "\\x%02x" (Char.code c))
                  (List.init (String.length b.O.Engine.input) (String.get b.O.Engine.input)))))
        v.O.Engine.bugs)
    O.Costmodel.all;
  print_endline
    "\nEach reported input is a concrete witness: replaying it in the\n\
     interpreter triggers the same failure. Verify one:";
  let m = O.compile ~level:O.Costmodel.overify buggy_source in
  let v = O.Engine.run ~config m in
  List.iter
    (fun (b : O.Engine.bug) ->
      let r = O.Interp.run m ~input:b.O.Engine.input in
      Printf.printf "  replaying %-45s -> %s\n" b.O.Engine.kind
        (match r.O.Interp.trap with
        | Some t -> "TRAP: " ^ O.Interp.string_of_trap t
        | None -> "no trap (bug depends on engine checks)"))
    v.O.Engine.bugs
