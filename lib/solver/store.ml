(** Persistent cross-run solver store: framed binary file (magic +
    version + length + checksum trailer via {!Binfile}), atomic writes,
    graceful rejection of invalid or truncated files.  See store.mli. *)

module Fault = Overify_fault.Fault

type entry = E_unsat | E_sat of int64 array | E_blob of string

let magic = "OVERIFY-SOLVER-STORE"

(* v2: framed via Binfile (length + MD5 trailer).  v1 files (bare
   magic+version+Marshal) fail the frame parse and load as empty, which
   is the correct cold-cache behaviour for a format change.
   v3: adds the E_blob constructor (opaque client payloads — function
   summaries); v2 files load as empty for the same cold-cache reason. *)
let version = 3
let filename = "solver-cache.bin"

type t = {
  path : string option;  (** [None]: the store lives in memory only *)
  tbl : (string, entry) Hashtbl.t;
  mutex : Mutex.t;
  faults : Fault.t option;
  mutable dirty : bool;
  mutable loaded : int;
}

let make ?faults path =
  {
    path;
    tbl = Hashtbl.create 256;
    mutex = Mutex.create ();
    faults;
    dirty = false;
    loaded = 0;
  }

let in_memory () = make None

let load ?faults ~dir () : t =
  let path = Filename.concat dir filename in
  let t = make ?faults (Some path) in
  Binfile.mkdirs dir;
  (match Binfile.read ~path ~magic ~version with
  | None -> (* missing/corrupt/truncated/wrong version: start cold *) ()
  | Some payload -> (
      try
        let (data : (string, entry) Hashtbl.t) = Marshal.from_string payload 0 in
        Hashtbl.iter (fun k e -> Hashtbl.replace t.tbl k e) data;
        t.loaded <- Hashtbl.length t.tbl
      with _ -> ()));
  t

let find t key =
  Mutex.lock t.mutex;
  let r = Hashtbl.find_opt t.tbl key in
  Mutex.unlock t.mutex;
  r

let add t key entry =
  Mutex.lock t.mutex;
  if not (Hashtbl.mem t.tbl key) then begin
    Hashtbl.replace t.tbl key entry;
    t.dirty <- true
  end;
  Mutex.unlock t.mutex

(* Injected write faults mangle the framed bytes before the atomic
   write: a flipped payload byte (digest mismatch on load) or a
   truncation (length mismatch).  Either way the next [load] must come
   up empty rather than crash — the truncation-sweep unit test checks
   every prefix length. *)
let mangle faults bytes =
  let corrupt = Fault.fire faults Fault.Store_corrupt in
  let partial = Fault.fire faults Fault.Store_partial in
  let bytes =
    if corrupt && String.length bytes > 40 then begin
      let b = Bytes.of_string bytes in
      let i = String.length magic + 12 + ((Bytes.length b - 60) / 2) in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x5a));
      Bytes.to_string b
    end
    else bytes
  in
  if partial then String.sub bytes 0 (String.length bytes * 2 / 3) else bytes

let save t =
  Mutex.lock t.mutex;
  (match t.path with
  | Some path when t.dirty -> (
      try
        let payload = Marshal.to_string t.tbl [] in
        let bytes = mangle t.faults (Binfile.frame ~magic ~version payload) in
        if Binfile.write_atomic ~path bytes then t.dirty <- false
      with _ -> (* cache write failures never fail the run *) ())
  | _ -> ());
  Mutex.unlock t.mutex

let with_dir ?faults ~dir f =
  let t = load ?faults ~dir () in
  let r = f t in
  save t;
  r

let length t =
  Mutex.lock t.mutex;
  let n = Hashtbl.length t.tbl in
  Mutex.unlock t.mutex;
  n

let loaded t = t.loaded
