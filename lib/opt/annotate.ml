(** Program-annotation pass (paper §3, "program annotations" row of
    Table 2): information the compiler computed anyway is preserved as
    function metadata for downstream verification tools instead of being
    thrown away.

    Facts recorded in [fmeta]:
    - ["pure"]: the function writes no memory and makes no calls
    - ["loops"]: number of natural loops remaining
    - ["max_trip:<header>"]: constant trip counts for counted loops
    - ["range:<reg>"]: value ranges implied by zero-extensions
    - ["noalias"]: number of distinct non-escaping stack slots *)

module Ir = Overify_ir.Ir
module Loop = Overify_ir.Loop

let run (cm : Costmodel.t) (stats : Stats.t) (fn : Ir.func) : Ir.func * bool =
  let meta = ref [] in
  let add k v =
    meta := (k, v) :: !meta;
    stats.Stats.annotations_added <- stats.Stats.annotations_added + 1
  in
  if Gvn.function_is_memory_quiet fn then add "pure" "true";
  let loops = Loop.find fn in
  add "loops" (string_of_int (List.length loops));
  (* ranges from zero-extensions: zext iK -> iN implies [0, 2^K-1] *)
  let ranges = ref 0 in
  Ir.iter_insts
    (fun _ i ->
      match i with
      | Ir.Cast (d, Ir.Zext, _, _, from_ty) when Ir.bits_of_ty from_ty < 64 ->
          incr ranges;
          if !ranges <= 32 then
            add
              (Printf.sprintf "range:%%%d" d)
              (Printf.sprintf "[0,%Ld]"
                 (Int64.sub (Int64.shift_left 1L (Ir.bits_of_ty from_ty)) 1L))
      | _ -> ())
    fn;
  let safe = Loop_unswitch.non_escaping_slots fn.Ir.blocks in
  add "noalias_slots"
    (string_of_int (Overify_ir.Cfg.IntSet.cardinal safe));
  (* constant trip counts that survived (residual loops have none) *)
  let blocks = Overify_ir.Cfg.block_array fn in
  let preds = Overify_ir.Cfg.preds fn in
  List.iter
    (fun l ->
      match Loop_unroll.analyze cm blocks preds safe l with
      | Some trip ->
          add (Printf.sprintf "max_trip:L%d" l.Loop.header) (string_of_int trip)
      | None -> ())
    loops;
  ({ fn with Ir.fmeta = !meta @ fn.Ir.fmeta }, true)
