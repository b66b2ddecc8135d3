let rec mkdirs d =
  if d <> "" && d <> "/" && d <> "." && not (Sys.file_exists d) then begin
    mkdirs (Filename.dirname d);
    try Unix.mkdir d 0o755 with _ -> ()
  end

let put_int_be buf width v =
  for i = width - 1 downto 0 do
    Buffer.add_char buf (Char.chr ((v lsr (8 * i)) land 0xff))
  done

let get_int_be s off width =
  let v = ref 0 in
  for i = 0 to width - 1 do
    v := (!v lsl 8) lor Char.code s.[off + i]
  done;
  !v

let frame ~magic ~version payload =
  let buf = Buffer.create (String.length payload + 64) in
  Buffer.add_string buf magic;
  put_int_be buf 4 version;
  put_int_be buf 8 (String.length payload);
  Buffer.add_string buf payload;
  Buffer.add_string buf (Digest.string payload);
  Buffer.contents buf

let parse ~magic ~version s =
  let mlen = String.length magic in
  let header = mlen + 4 + 8 in
  let len = String.length s in
  if len < header + 16 then None
  else if String.sub s 0 mlen <> magic then None
  else if get_int_be s mlen 4 <> version then None
  else
    let plen = get_int_be s (mlen + 4) 8 in
    if len <> header + plen + 16 then None
    else
      let payload = String.sub s header plen in
      let digest = String.sub s (header + plen) 16 in
      if Digest.string payload <> digest then None else Some payload

(* Temp names must be unique per {e write}, not just per process: two
   threads of one process saving the same path (the serve daemon's
   periodic store save racing another handle's save) would otherwise
   share a pid-only temp file and interleave, and the rename could
   publish the torn result.  A process-wide counter disambiguates. *)
let tmp_seq = Atomic.make 0

let write_atomic ~path bytes =
  try
    mkdirs (Filename.dirname path);
    let tmp =
      Printf.sprintf "%s.tmp.%d.%d" path (Unix.getpid ())
        (Atomic.fetch_and_add tmp_seq 1)
    in
    let oc = open_out_bin tmp in
    (try
       Fun.protect
         ~finally:(fun () -> close_out_noerr oc)
         (fun () -> output_string oc bytes);
       Sys.rename tmp path
     with e ->
       (try Sys.remove tmp with Sys_error _ -> ());
       raise e);
    true
  with _ -> false

let read_file ~path =
  try
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> Some (really_input_string ic (in_channel_length ic)))
  with _ -> None

let write ~path ~magic ~version payload =
  write_atomic ~path (frame ~magic ~version payload)

let read ~path ~magic ~version =
  Option.bind (read_file ~path) (parse ~magic ~version)

(* lstat, so a symlink is removed rather than followed *)
let rec rm_rf path =
  try
    match (Unix.lstat path).Unix.st_kind with
    | Unix.S_DIR ->
        Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
        Unix.rmdir path
    | _ -> Unix.unlink path
  with Unix.Unix_error _ | Sys_error _ -> ()

let with_temp_dir prefix f =
  let dir = Filename.temp_dir prefix "" in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)
