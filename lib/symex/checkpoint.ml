module Ir = Overify_ir.Ir
module Bv = Overify_solver.Bv
module Binfile = Overify_solver.Binfile
module IMap = State.IMap

type snapshot = {
  ck_paths : int;
  ck_exits : (string * int64) list;
  ck_bugs : ((string * string) * string) list;
  ck_covered : (string * int) list;
  ck_insts : int;
  ck_forks : int;
  ck_degs : (string * string * int) list;
  ck_frontier : State.t list;
}

(* the digest travels inside the payload, next to the snapshot *)
type file_body = { fb_digest : string; fb_snapshot : snapshot }

let magic = "OVERIFY-CHECKPOINT"
let version = 1
let file ~dir = Filename.concat dir "checkpoint.bin"

let fingerprint m ~input_size =
  Digest.to_hex
    (Digest.string
       (Printf.sprintf "%s|n=%d" (Overify_ir.Printer.modul_to_string m)
          input_size))

let save ~dir ~digest (s : snapshot) =
  try
    let payload =
      Marshal.to_string { fb_digest = digest; fb_snapshot = s } []
    in
    Binfile.write ~path:(file ~dir) ~magic ~version payload
  with _ -> false

(* ---- re-interning: rebuild every Bv term of an unmarshaled state ---- *)

let rehash_sval f = function
  | Sval.SInt t -> Sval.SInt (f t)
  | Sval.SPtr (o, off) -> Sval.SPtr (o, f off)

let rehash_state f (st : State.t) =
  {
    st with
    State.frames =
      List.map
        (fun (fr : State.frame) ->
          { fr with State.regs = IMap.map (rehash_sval f) fr.State.regs })
        st.State.frames;
    mem = Memory.map_terms f st.State.mem;
    path = List.map f st.State.path;
    out_rev = List.map f st.State.out_rev;
  }

let load ~dir ~digest =
  match Binfile.read ~path:(file ~dir) ~magic ~version with
  | None -> None
  | Some payload -> (
      match
        try Some (Marshal.from_string payload 0 : file_body) with _ -> None
      with
      | Some fb when fb.fb_digest = digest ->
          let f = Bv.rebuilder () in
          let s = fb.fb_snapshot in
          Some { s with ck_frontier = List.map (rehash_state f) s.ck_frontier }
      | Some _ | None -> None)

let delete ~dir = try Sys.remove (file ~dir) with _ -> ()
