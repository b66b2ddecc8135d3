(** Quickstart: compile the paper's motivating [wc] example at every
    optimization level, execute it concretely, and symbolically explore all
    of its paths — a miniature Table 1.

    Run with: [dune exec examples/quickstart.exe] *)

module O = Overify

let wc_source = {|
/* Listing 1 of the paper: count words separated by whitespace or, if
   any != 0, by non-alphabetic characters. */
int wc(unsigned char *str, int any) {
  int res = 0;
  int new_word = 1;
  for (unsigned char *p = str; *p; ++p) {
    if (isspace((int)*p) || (any && !isalpha((int)*p))) {
      new_word = 1;
    } else {
      if (new_word) { ++res; new_word = 0; }
    }
  }
  return res;
}

int main(void) {
  char buf[16];
  read_input(buf, 16);
  return wc((unsigned char *)buf, 1);
}
|}

let () =
  print_endline "== Quickstart: wc at four optimization levels ==\n";
  List.iter
    (fun (level : O.Costmodel.t) ->
      (* 1. compile (the level picks its own libc variant) *)
      let m = O.compile ~level wc_source in
      (* 2. run concretely: words in a sample text *)
      let r = O.Interp.run m ~input:"hello brave new world" in
      (* 3. verify: exhaustively explore all paths for 3 symbolic bytes *)
      let v =
        O.Engine.run ~config:{ O.Engine.default_config with input_size = 3 } m
      in
      Printf.printf
        "%-9s wc(\"hello brave new world\") = %Ld | t_run = %6d cycles | \
         verification (3 symbolic bytes): %4d paths, %6d instructions, %7.1f ms\n"
        level.O.Costmodel.name r.O.Interp.exit_code r.O.Interp.cycles
        v.O.Engine.paths v.O.Engine.instructions
        (v.O.Engine.time *. 1000.))
    O.Costmodel.all;
  print_endline
    "\nNote the trade-off the paper is about: -OVERIFY explores dramatically\n\
     fewer paths (linear in the input size instead of exponential), while\n\
     its branch-free code costs more cycles to execute than -O3.";
  (* show the branch-free loop body -OVERIFY produces (paper's Listing 2) *)
  let m = O.compile ~level:O.Costmodel.overify wc_source in
  print_endline "\n-OVERIFY code for main (note the select-based loop body):";
  print_string (O.Printer.func_to_string (O.Ir.find_func_exn m "main"))
