(** Verification-service suite: protocol round-trips (QCheck), frame
    hardening (malformed / truncated / oversized inputs answered with
    structured errors, daemon intact), request deduplication (N identical
    concurrent requests, one execution), the serve-vs-CLI differential
    (byte-identical verify verdicts, including under injected faults), the
    response-envelope golden keys, and the store lifecycle under
    concurrency (racing atomic saves never tear the file; served tv
    requests share the warm store and report its hits). *)

module Serve = Overify_serve.Serve
module Client = Overify_serve.Client
module Protocol = Overify_serve.Protocol
module Json = Overify_serve.Json
module Log = Overify_serve.Log
module Binfile = Overify_solver.Binfile
module Store = Overify_solver.Store
module Solver = Overify_solver.Solver
module Bv = Overify_solver.Bv
module Engine = Overify_symex.Engine
module Frontend = Overify_minic.Frontend
module Costmodel = Overify_opt.Costmodel
module Pipeline = Overify_opt.Pipeline
module Programs = Overify_corpus.Programs
module Vclib = Overify_vclib.Vclib
module Fault = Overify_fault.Fault

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let string = Alcotest.string

let with_daemon f =
  let d = Serve.start () in
  Fun.protect ~finally:(fun () -> Serve.stop d) (fun () -> f d)

let with_conn d f =
  let c = Client.connect (Serve.socket_path d) in
  Fun.protect ~finally:(fun () -> Client.close c) (fun () -> f c)

let get_str json key =
  match Protocol.extract_field json key with
  | Some v -> (
      match Json.parse v with Ok (Json.Str s) -> s | _ -> String.trim v)
  | None -> Alcotest.failf "field %S missing in %s" key json

let get_raw json key =
  match Protocol.extract_field json key with
  | Some v -> v
  | None -> Alcotest.failf "field %S missing in %s" key json

let daemon_stat d name =
  with_conn d @@ fun c ->
  match
    Client.rpc c
      { Protocol.default_request with Protocol.rq_kind = Protocol.Metrics }
  with
  | Ok json -> (
      let result = get_raw json "result" in
      match Json.parse result with
      | Ok j -> Option.value ~default:(-1) (Option.bind (Json.mem j name) Json.int_)
      | Error e ->
          Alcotest.failf "metrics result unparseable (%s): %s" e result)
  | Error e ->
      Alcotest.failf "metrics rpc failed: %s" (Protocol.frame_error_name e)

(* ------------- Json: parse/print ------------- *)

let test_json_roundtrip_docs () =
  let docs =
    [
      "null"; "true"; "false"; "0"; "-7"; "3.5"; "\"\"";
      "\"a b\\nc\\\"d\\\\e\"";
      "[]"; "[1, 2, 3]"; "{}";
      "{\"k\": [true, null, {\"x\": -1}], \"s\": \"v\"}";
    ]
  in
  List.iter
    (fun doc ->
      match Json.parse doc with
      | Error e -> Alcotest.failf "parse %s: %s" doc e
      | Ok v -> check string doc doc (Json.to_string v))
    docs

let test_json_rejects () =
  let bad =
    [ ""; "tru"; "{"; "[1,"; "{\"a\" 1}"; "\"unterminated"; "1 2";
      "{\"a\": 1,}"; "nul"; "--1"; "[1] trailing" ]
  in
  List.iter
    (fun doc ->
      match Json.parse doc with
      | Ok _ -> Alcotest.failf "accepted malformed %S" doc
      | Error _ -> ())
    bad

let test_json_deep_nesting_safe () =
  (* a pathologically nested document must yield an error, not a crash *)
  let n = 2_000_000 in
  let doc = String.make n '[' in
  match Json.parse doc with
  | Ok _ -> Alcotest.fail "accepted unterminated deep nesting"
  | Error _ -> ()

let test_json_control_chars () =
  let s = "a\x01b\tc\"d\\e\x1f" in
  let doc = "\"" ^ Json.escape s ^ "\"" in
  match Json.parse doc with
  | Ok (Json.Str s') -> check string "control chars round-trip" s s'
  | _ -> Alcotest.failf "bad parse of %s" doc

(* ------------- Protocol: QCheck round-trips ------------- *)

let request_gen : Protocol.request QCheck.Gen.t =
  let open QCheck.Gen in
  let any_string =
    string_size ~gen:(map Char.chr (int_range 0 255)) (int_bound 40)
  in
  let* rq_id = int_bound 1_000_000 in
  let* rq_kind =
    oneofl [ Protocol.Verify; Protocol.Compile; Protocol.Tv;
             Protocol.Metrics; Protocol.Shutdown ]
  in
  let* rq_program = any_string in
  let* rq_source = any_string in
  let* rq_level = any_string in
  let* rq_input_size = int_bound 64 in
  let* timeout_mant = int_range 1 1_000_000 in
  let* timeout_exp = int_range (-3) 3 in
  let rq_timeout =
    float_of_int timeout_mant *. (10.0 ** float_of_int timeout_exp)
  in
  let* rq_jobs = int_range 1 64 in
  let* rq_link_libc = bool in
  let* rq_deterministic = bool in
  let* rq_faults = any_string in
  let* rq_summaries = bool in
  let* rq_format = oneofl [ ""; "json"; "prometheus" ] in
  return
    {
      Protocol.rq_id; rq_kind; rq_program; rq_source; rq_level;
      rq_input_size; rq_timeout; rq_jobs; rq_link_libc; rq_deterministic;
      rq_faults; rq_summaries; rq_format;
    }

let test_request_roundtrip =
  QCheck.Test.make ~count:500 ~name:"request json round-trip"
    (QCheck.make request_gen)
    (fun rq ->
      let json = Protocol.request_to_json rq in
      match Json.parse json with
      | Error e -> QCheck.Test.fail_reportf "emitted unparseable JSON: %s" e
      | Ok j -> (
          match Protocol.request_of_json j with
          | Error e -> QCheck.Test.fail_reportf "rejected own encoding: %s" e
          | Ok rq' -> rq = rq'))

let test_frame_roundtrip =
  QCheck.Test.make ~count:100 ~name:"frame wire round-trip"
    QCheck.(string_gen_of_size (QCheck.Gen.int_bound 4096)
              (QCheck.Gen.map Char.chr (QCheck.Gen.int_range 0 255)))
    (fun payload ->
      let (a, b) = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () ->
          (try Unix.close a with Unix.Unix_error _ -> ());
          try Unix.close b with Unix.Unix_error _ -> ())
        (fun () ->
          if not (Protocol.write_frame a payload) then
            QCheck.Test.fail_report "write_frame failed";
          match Protocol.read_frame b with
          | Ok p -> p = payload
          | Error e ->
              QCheck.Test.fail_reportf "read_frame: %s"
                (Protocol.frame_error_name e)))

let test_fingerprint_semantics () =
  let rq = Protocol.default_request in
  let key = Protocol.fingerprint rq in
  check string "id is not semantic" key
    (Protocol.fingerprint { rq with Protocol.rq_id = 42 });
  (* one change per other request field; the timeout moves by one ulp *)
  List.iter
    (fun (field, changed) ->
      check bool (field ^ " is semantic") true
        (Protocol.fingerprint changed <> key))
    Protocol.
      [
        ("kind", { rq with rq_kind = Compile });
        ("program", { rq with rq_program = "wc" });
        ("source", { rq with rq_source = "int main() { return 0; }" });
        ("level", { rq with rq_level = "O0" });
        ("input_size", { rq with rq_input_size = rq.rq_input_size + 1 });
        ("timeout", { rq with rq_timeout = Float.succ rq.rq_timeout });
        ("jobs", { rq with rq_jobs = rq.rq_jobs + 1 });
        ("link_libc", { rq with rq_link_libc = not rq.rq_link_libc });
        ("deterministic", { rq with rq_deterministic = not rq.rq_deterministic });
        ("faults", { rq with rq_faults = "crash@1" });
        ("summaries", { rq with rq_summaries = not rq.rq_summaries });
        ("format", { rq with rq_format = "prometheus" });
      ]

let test_request_rejects () =
  let parse s =
    match Json.parse s with
    | Ok j -> Protocol.request_of_json j
    | Error e -> Error e
  in
  let expect_err label s =
    match parse s with
    | Ok _ -> Alcotest.failf "%s: accepted %s" label s
    | Error _ -> ()
  in
  expect_err "not an object" "[1]";
  expect_err "missing kind" "{\"program\": \"wc\"}";
  expect_err "unknown kind" "{\"kind\": \"frobnicate\"}";
  expect_err "retired stats kind" "{\"kind\": \"stats\"}";
  expect_err "unknown field" "{\"kind\": \"verify\", \"frob\": 1}";
  expect_err "bad type" "{\"kind\": \"verify\", \"input_size\": \"four\"}";
  expect_err "size range" "{\"kind\": \"verify\", \"input_size\": 65}";
  expect_err "jobs range" "{\"kind\": \"verify\", \"jobs\": 0}";
  expect_err "timeout range" "{\"kind\": \"verify\", \"timeout\": -1}";
  expect_err "unknown format" "{\"kind\": \"metrics\", \"format\": \"xml\"}";
  match parse "{\"kind\": \"verify\", \"program\": \"wc\"}" with
  | Ok rq -> check string "defaults fill in" "OVERIFY" rq.Protocol.rq_level
  | Error e -> Alcotest.failf "rejected minimal request: %s" e

let test_extract_field () =
  let doc =
    "{\"a\": {\"nested\": [1, 2, \"}\"]}, \"b\": \"x\\\"y\", \"c\": -3.5, \
     \"d\": null}"
  in
  check string "object field" "{\"nested\": [1, 2, \"}\"]}" (get_raw doc "a");
  check string "string field with escape" "\"x\\\"y\"" (get_raw doc "b");
  check string "number field" "-3.5" (get_raw doc "c");
  check string "null field" "null" (get_raw doc "d");
  check bool "nested key not top-level" true
    (Protocol.extract_field doc "nested" = None)

(* random objects, nested up to three levels *)
let json_object_gen : (string * Json.t) list QCheck.Gen.t =
  let open QCheck.Gen in
  let any_string =
    string_size ~gen:(map Char.chr (int_range 0 255)) (int_bound 12)
  in
  let scalar =
    oneof
      [
        return Json.Null;
        map (fun b -> Json.Bool b) bool;
        map (fun i -> Json.Num (float_of_int i)) (int_range (-1000) 1000);
        map (fun f -> Json.Num f) (float_range (-1e9) 1e9);
        map (fun s -> Json.Str s) any_string;
      ]
  in
  let members value = list_size (int_bound 6) (pair any_string value) in
  let value =
    fix
      (fun self depth ->
        if depth = 0 then scalar
        else
          frequency
            [
              (3, scalar);
              (1, map (fun xs -> Json.Arr xs)
                    (list_size (int_bound 4) (self (depth - 1))));
              (1, map (fun kvs -> Json.Obj kvs) (members (self (depth - 1))));
            ])
      2
  in
  members value

let test_extract_field_members =
  QCheck.Test.make ~count:300 ~name:"extract_field reads every member"
    (QCheck.make
       ~print:(fun kvs -> Json.to_string (Json.Obj kvs))
       json_object_gen)
    (fun kvs ->
      let doc = Json.to_string (Json.Obj kvs) in
      List.for_all
        (fun (k, _) ->
          Protocol.extract_field doc k
          = Some (Json.to_string (List.assoc k kvs)))
        kvs)

(* ------------- daemon: frame hardening ------------- *)

let wc_request =
  {
    Protocol.default_request with
    Protocol.rq_program = "wc";
    rq_level = "O0";
    rq_input_size = 1;
    rq_timeout = 30.0;
    rq_deterministic = true;
  }

let test_garbage_frame () =
  with_daemon @@ fun d ->
  (with_conn d @@ fun c ->
   check bool "garbage sent" true (Client.send_bytes c "NOT A FRAME AT ALL");
   match Client.read_response c with
   | Ok json ->
       check string "status" "error" (get_str json "status");
       let err = get_raw json "error" in
       check bool "bad_frame error" true
         (match Json.parse err with
         | Ok e -> Json.mem e "kind" = Some (Json.Str "bad_frame")
         | Error _ -> false)
   | Error e ->
       Alcotest.failf "no structured answer to garbage: %s"
         (Protocol.frame_error_name e));
  (* the daemon survives and still serves *)
  with_conn d @@ fun c ->
  match Client.rpc c wc_request with
  | Ok json -> check string "daemon alive after garbage" "ok" (get_str json "status")
  | Error e -> Alcotest.failf "daemon dead: %s" (Protocol.frame_error_name e)

let test_truncated_frame () =
  with_daemon @@ fun d ->
  (with_conn d @@ fun c ->
   (* a valid frame cut mid-payload, then EOF *)
   let frame = Binfile.frame ~magic:Protocol.magic ~version:Protocol.version
       "{\"kind\": \"metrics\"}" in
   let half = String.sub frame 0 (String.length frame - 7) in
   ignore (Client.send_bytes c half));
  (* connection dropped; daemon must keep serving *)
  with_conn d @@ fun c ->
  match Client.rpc c wc_request with
  | Ok json -> check string "daemon alive after truncation" "ok" (get_str json "status")
  | Error e -> Alcotest.failf "daemon dead: %s" (Protocol.frame_error_name e)

let test_oversized_frame () =
  with_daemon @@ fun d ->
  (with_conn d @@ fun c ->
   (* a well-formed header declaring a payload far beyond the cap: the
      daemon must refuse *before* allocating/reading the payload *)
   let buf = Buffer.create 32 in
   Buffer.add_string buf Protocol.magic;
   let put width v =
     for i = width - 1 downto 0 do
       Buffer.add_char buf (Char.chr ((v lsr (8 * i)) land 0xff))
     done
   in
   put 4 Protocol.version;
   put 8 (Protocol.max_frame + 1);
   check bool "header sent" true (Client.send_bytes c (Buffer.contents buf));
   match Client.read_response c with
   | Ok json ->
       check string "status" "error" (get_str json "status");
       check bool "oversized error detail" true
         (let err = get_raw json "error" in
          match Json.parse err with
          | Ok e -> (
              match Json.mem e "message" with
              | Some (Json.Str m) ->
                  String.length m >= 9 && String.sub m 0 9 = "oversized"
              | _ -> false)
          | Error _ -> false)
   | Error e ->
       Alcotest.failf "no structured answer to oversized header: %s"
         (Protocol.frame_error_name e));
  with_conn d @@ fun c ->
  match Client.rpc c wc_request with
  | Ok json -> check string "daemon alive after oversized" "ok" (get_str json "status")
  | Error e -> Alcotest.failf "daemon dead: %s" (Protocol.frame_error_name e)

let test_bad_json_keeps_connection () =
  with_daemon @@ fun d ->
  with_conn d @@ fun c ->
  (* invalid JSON in a valid frame: structured error, connection stays
     usable (frame boundaries were never lost) *)
  check bool "payload sent" true (Client.send_payload c "{\"kind\": oops");
  (match Client.read_response c with
  | Ok json ->
      check string "status" "error" (get_str json "status");
      check bool "bad_json error" true
        (match Json.parse (get_raw json "error") with
        | Ok e -> Json.mem e "kind" = Some (Json.Str "bad_json")
        | Error _ -> false)
  | Error e ->
      Alcotest.failf "no answer to bad json: %s" (Protocol.frame_error_name e));
  match Client.rpc c wc_request with
  | Ok json ->
      check string "same connection still serves" "ok" (get_str json "status")
  | Error e -> Alcotest.failf "connection lost: %s" (Protocol.frame_error_name e)

let test_bad_request_errors () =
  with_daemon @@ fun d ->
  with_conn d @@ fun c ->
  let expect_bad label payload =
    check bool (label ^ " sent") true (Client.send_payload c payload);
    match Client.read_response c with
    | Ok json ->
        check string (label ^ " status") "error" (get_str json "status")
    | Error e ->
        Alcotest.failf "%s: no structured answer: %s" label
          (Protocol.frame_error_name e)
  in
  expect_bad "unknown field" "{\"kind\": \"verify\", \"frob\": 1}";
  expect_bad "unknown program"
    "{\"kind\": \"verify\", \"program\": \"no-such-program\", \
     \"deterministic\": true}";
  expect_bad "unknown level"
    "{\"kind\": \"verify\", \"program\": \"wc\", \"level\": \"O7\", \
     \"deterministic\": true}";
  expect_bad "bad fault spec"
    "{\"kind\": \"verify\", \"program\": \"wc\", \"faults\": \"bogus@x\", \
     \"deterministic\": true}";
  expect_bad "no program and no source" "{\"kind\": \"verify\"}"

let test_injected_kill_contained () =
  with_daemon @@ fun d ->
  (with_conn d @@ fun c ->
   (* kill@1: the first executor step raises Fault.Killed — one-shot CLI
      dies with exit 137; the daemon must contain it as a structured
      error and survive *)
   match
     Client.rpc c { wc_request with Protocol.rq_faults = "kill@1" }
   with
   | Ok json ->
       check string "killed request errors" "error" (get_str json "status");
       check bool "killed error kind" true
         (match Json.parse (get_raw json "error") with
         | Ok e -> Json.mem e "kind" = Some (Json.Str "killed")
         | Error _ -> false)
   | Error e ->
       Alcotest.failf "no structured answer to killed run: %s"
         (Protocol.frame_error_name e));
  with_conn d @@ fun c ->
  match Client.rpc c wc_request with
  | Ok json -> check string "daemon survives the kill" "ok" (get_str json "status")
  | Error e -> Alcotest.failf "daemon dead: %s" (Protocol.frame_error_name e)

(* ------------- dedup ------------- *)

let test_dedup_identical_concurrent () =
  with_daemon @@ fun d ->
  let n = 6 in
  let bodies = Array.make n "" in
  let worker i =
    with_conn d @@ fun c ->
    match Client.rpc c { wc_request with Protocol.rq_id = i } with
    | Ok json -> bodies.(i) <- json
    | Error e -> bodies.(i) <- "transport:" ^ Protocol.frame_error_name e
  in
  let threads = List.init n (fun i -> Thread.create worker i) in
  List.iter Thread.join threads;
  (* all envelopes ok, all results byte-identical *)
  Array.iteri
    (fun i json ->
      check string (Printf.sprintf "request %d ok" i) "ok" (get_str json "status"))
    bodies;
  let result0 = get_raw bodies.(0) "result" in
  Array.iteri
    (fun i json ->
      check string
        (Printf.sprintf "request %d result identical" i)
        result0 (get_raw json "result"))
    bodies;
  (* exactly one underlying execution; every other request was a dedup
     hit (in-flight join or recent-cache) — visible in the counters *)
  check int "one execution for n identical requests" 1 (daemon_stat d "executed");
  check int "n-1 dedup hits" (n - 1) (daemon_stat d "dedup_hits");
  (* ids are echoed per-request even when deduplicated *)
  Array.iteri
    (fun i json ->
      check string (Printf.sprintf "id %d echoed" i) (string_of_int i)
        (get_raw json "id"))
    bodies

let test_dedup_kind_isolation () =
  (* same program at two kinds / two levels: no false sharing *)
  with_daemon @@ fun d ->
  (with_conn d @@ fun c ->
   List.iter
     (fun rq ->
       match Client.rpc c rq with
       | Ok json -> check string "ok" "ok" (get_str json "status")
       | Error e -> Alcotest.failf "rpc: %s" (Protocol.frame_error_name e))
     [
       wc_request;
       { wc_request with Protocol.rq_kind = Protocol.Compile };
       { wc_request with Protocol.rq_level = "O2" };
     ]);
  check int "three distinct executions" 3 (daemon_stat d "executed");
  check int "no dedup hits" 0 (daemon_stat d "dedup_hits")

(* the recent cache keeps the newest [recent_cap] answers: at cap 2,
   three distinct requests evict the first, which then runs again, while
   the third is still answered from the cache *)
let test_dedup_recent_eviction () =
  let d = Serve.start ~recent_cap:2 () in
  Fun.protect ~finally:(fun () -> Serve.stop d) @@ fun () ->
  let dedup rq =
    with_conn d @@ fun c ->
    match Client.rpc c rq with
    | Ok json ->
        check string "ok" "ok" (get_str json "status");
        get_str json "dedup"
    | Error e -> Alcotest.failf "rpc: %s" (Protocol.frame_error_name e)
  in
  let a = wc_request
  and b = { wc_request with Protocol.rq_level = "O2" }
  and c = { wc_request with Protocol.rq_level = "O3" } in
  List.iter (fun rq -> check string "a new request runs" "miss" (dedup rq))
    [ a; b; c ];
  check string "the evicted request runs again" "miss" (dedup a);
  check int "four executions" 4 (daemon_stat d "executed");
  check string "a kept request is answered from the cache" "recent"
    (dedup c);
  check int "the cache holds two answers" 2 (daemon_stat d "recent")

(* ------------- serve-vs-CLI differential ------------- *)

(** What `overify verify --json --deterministic` computes, in-process:
    compile exactly as the daemon does, run the engine cold, print the
    deterministic document. *)
let oneshot_verify_json ~(level : string) ~input_size ~faults () =
  let cm = Option.get (Costmodel.of_name level) in
  let p = Option.get (Programs.find "wc") in
  let m =
    (Pipeline.optimize cm
       (Frontend.compile_sources [ Vclib.for_cost_model cm; p.Programs.source ]))
      .Pipeline.modul
  in
  let faults =
    if faults = "" then None
    else match Fault.parse faults with Ok f -> Some f | Error e -> failwith e
  in
  let r =
    Engine.run
      ~config:
        { Engine.default_config with Engine.input_size; timeout = 30.0; faults }
      m
  in
  Engine.result_to_json ~deterministic:true r

let differential ~level ~faults () =
  with_daemon @@ fun d ->
  let via_daemon =
    with_conn d @@ fun c ->
    match
      Client.rpc c
        { wc_request with Protocol.rq_level = level; rq_faults = faults }
    with
    | Ok json ->
        check string "daemon request ok" "ok" (get_str json "status");
        get_raw json "result"
    | Error e -> Alcotest.failf "rpc: %s" (Protocol.frame_error_name e)
  in
  let via_cli = oneshot_verify_json ~level ~input_size:1 ~faults () in
  check string
    (Printf.sprintf "byte-identical verdict (%s%s)" level
       (if faults = "" then "" else ", faults " ^ faults))
    via_cli via_daemon

let test_differential_o0 () = differential ~level:"O0" ~faults:"" ()
let test_differential_overify () = differential ~level:"OVERIFY" ~faults:"" ()

let test_differential_faults () =
  (* a degraded run (injected solver timeout) must degrade identically:
     same structured degradations, same faults_injected counts *)
  differential ~level:"O0" ~faults:"timeout@1" ()

let test_differential_warm_store () =
  (* the whole point of ~deterministic: the SAME request against a warm
     daemon (second occurrence, answered by a fresh execution after the
     recent-cache is bypassed via distinct fingerprints... kept simple:
     re-ask with a different id, dedup answers from cache — then compare
     against the cold one-shot document *)
  with_daemon @@ fun d ->
  let ask id =
    with_conn d @@ fun c ->
    match Client.rpc c { wc_request with Protocol.rq_id = id } with
    | Ok json -> (get_str json "dedup", get_raw json "result")
    | Error e -> Alcotest.failf "rpc: %s" (Protocol.frame_error_name e)
  in
  let (d1, r1) = ask 1 in
  let (d2, r2) = ask 2 in
  check string "first is a miss" "miss" d1;
  check string "second is a dedup hit" "recent" d2;
  check string "identical bytes warm vs cold" r1 r2;
  check string "and identical to the one-shot CLI document" r1
    (oneshot_verify_json ~level:"O0" ~input_size:1 ~faults:"" ())

(* ------------- response envelope: golden keys ------------- *)

let golden_walk json keys =
  let rec walk pos = function
    | [] -> ()
    | k :: rest ->
        let found = ref None in
        let nk = String.length k in
        (try
           for i = pos to String.length json - nk do
             if String.sub json i nk = k then begin
               found := Some i;
               raise Exit
             end
           done
         with Exit -> ());
        (match !found with
        | Some i -> walk (i + nk) rest
        | None ->
            Alcotest.failf "envelope: key %s missing (after position %d) in:\n%s"
              k pos json)
  in
  walk 0 keys

let test_envelope_golden_keys () =
  with_daemon @@ fun d ->
  with_conn d @@ fun c ->
  match Client.rpc c wc_request with
  | Error e -> Alcotest.failf "rpc: %s" (Protocol.frame_error_name e)
  | Ok json ->
      golden_walk json
        [
          "{"; "\"id\": 0"; "\"status\": \"ok\""; "\"kind\": \"verify\"";
          "\"dedup\": \"miss\""; "\"trace\": \"rq-"; "\"elapsed_ms\": 0.0";
          "\"error\": null";
          "\"result\": {"; "\"paths\":"; "\"instructions\":"; "\"forks\":";
          "\"queries\":"; "\"cache_hits\": 0"; "\"time_ms\": 0.0";
          "\"solver_time_ms\": 0.0"; "\"blocks_covered\":";
          "\"blocks_total\":"; "\"jobs\": 1"; "\"complete\": true";
          "\"resumed\": false"; "\"degradations\": []";
          "\"faults_injected\": []"; "\"bugs\": []"; "}";
        ]

let test_error_envelope_golden_keys () =
  with_daemon @@ fun d ->
  with_conn d @@ fun c ->
  check bool "sent" true (Client.send_payload c "not json");
  match Client.read_response c with
  | Error e -> Alcotest.failf "read: %s" (Protocol.frame_error_name e)
  | Ok json ->
      golden_walk json
        [
          "{"; "\"id\": 0"; "\"status\": \"error\"";
          "\"kind\": \"protocol\""; "\"dedup\": \"none\"";
          "\"trace\": \"\""; "\"elapsed_ms\":";
          "\"error\": {\"kind\": \"bad_json\"";
          "\"message\":"; "\"result\": null"; "}";
        ]

(* ------------- telemetry: metrics op and flight recorder ------------- *)

module Flight = Overify_serve.Flight

let metrics_rpc ?(format = "") d =
  with_conn d @@ fun c ->
  match
    Client.rpc c
      {
        Protocol.default_request with
        Protocol.rq_kind = Protocol.Metrics;
        rq_format = format;
      }
  with
  | Error e -> Alcotest.failf "metrics rpc: %s" (Protocol.frame_error_name e)
  | Ok json ->
      check string "metrics op ok" "ok" (get_str json "status");
      get_raw json "result"

let test_metrics_golden_keys () =
  with_daemon @@ fun d ->
  (with_conn d @@ fun c -> ignore (Client.rpc c wc_request));
  (with_conn d @@ fun c ->
   ignore (Client.rpc c { wc_request with Protocol.rq_id = 1 }));
  let result = metrics_rpc d in
  (* the full metrics document, fixed key order; the two verify
     requests above pin executed / dedup / latency-count cells *)
  golden_walk result
    [
      "{"; "\"uptime_s\":"; "\"queue_depth\":"; "\"inflight\": 0";
      "\"recent\": 1"; "\"requests\":";
      "\"executed\": 1"; "\"dedup_inflight\":"; "\"dedup_recent\":";
      "\"dedup_hits\": 1"; "\"malformed\": 0"; "\"errors\": 0";
      "\"requests_shed\": 0"; "\"cancelled\": 0";
      "\"deadline_exceeded\": 0"; "\"watchdog_fired\": 0";
      "\"idle_reaped\": 0"; "\"degraded\": 0"; "\"flight_dumps\": 0"; "\"flight_records\":";
      "\"flight_dropped\":"; "\"store_entries\":"; "\"store_loaded\":";
      "\"store_hits\":"; "\"engine_queries\":"; "\"engine_cache_hits\":";
      "\"solver_time_s\":"; "\"summary_instantiated\":";
      "\"summary_opaque\":"; "\"summary_computed\":"; "\"summary_cached\":";
      "\"latency_ms\": {"; "\"verify\": {"; "\"count\": 2"; "\"mean_ms\":";
      "\"p50_ms\":"; "\"p95_ms\":"; "\"p99_ms\":"; "\"max_ms\":";
      "\"compile\": {"; "\"count\": 0"; "\"tv\": {"; "}";
    ];
  match Json.parse result with
  | Error e -> Alcotest.failf "metrics result unparseable: %s" e
  | Ok j ->
      let leaf path =
        List.fold_left
          (fun acc k -> Option.bind acc (fun j -> Json.mem j k))
          (Some j) path
      in
      check bool "latency_ms.verify.count = 2" true
        (Option.bind (leaf [ "latency_ms"; "verify"; "count" ]) Json.int_
        = Some 2);
      check bool "p95 >= p50 >= 0" true
        (match
           ( Option.bind (leaf [ "latency_ms"; "verify"; "p50_ms" ]) Json.num,
             Option.bind (leaf [ "latency_ms"; "verify"; "p95_ms" ]) Json.num )
         with
        | Some p50, Some p95 -> p95 >= p50 && p50 >= 0.0
        | _ -> false)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
  nn <= nh && at 0

let test_prometheus_exposition () =
  with_daemon @@ fun d ->
  (with_conn d @@ fun c -> ignore (Client.rpc c wc_request));
  let raw = metrics_rpc ~format:"prometheus" d in
  let text =
    match Json.parse raw with
    | Ok (Json.Str s) -> s
    | _ -> Alcotest.failf "exposition is not a JSON string: %s" raw
  in
  (* shape: every sample line is `name{labels} value` with a numeric
     value; comment lines are # TYPE declarations *)
  let lines =
    List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' text)
  in
  check bool "non-trivial exposition" true (List.length lines > 10);
  List.iter
    (fun l ->
      if l.[0] = '#' then
        check bool ("type line: " ^ l) true
          (String.length l > 7 && String.sub l 0 7 = "# TYPE ")
      else
        match String.rindex_opt l ' ' with
        | None -> Alcotest.failf "sample without value: %s" l
        | Some i -> (
            let v = String.sub l (i + 1) (String.length l - i - 1) in
            match float_of_string_opt v with
            | Some _ -> ()
            | None -> Alcotest.failf "non-numeric sample value: %s" l))
    lines;
  check bool "histogram declared" true
    (contains text "# TYPE overify_request_latency_seconds histogram");
  (* the one verify request lands in the +Inf bucket with count 1 — the
     ISSUE's "correct histogram bucket" check in its cumulative form *)
  check bool "verify +Inf bucket counts the request" true
    (contains text
       "overify_request_latency_seconds_bucket{kind=\"verify\",le=\"+Inf\"} 1");
  check bool "requests counter present" true
    (contains text "overify_requests_total");
  check bool "dedup counter present" true
    (contains text "overify_dedup_hits_total");
  check bool "shed counter present" true
    (contains text "overify_requests_shed_total");
  check bool "watchdog counter present" true
    (contains text "overify_watchdog_fired_total")

let test_metrics_renderings_agree () =
  with_daemon @@ fun d ->
  (with_conn d @@ fun c -> ignore (Client.rpc c wc_request));
  (with_conn d @@ fun c ->
   ignore (Client.rpc c { wc_request with Protocol.rq_id = 1 }));
  (with_conn d @@ fun c ->
   ignore
     (Client.rpc c
        { wc_request with Protocol.rq_id = 2; rq_kind = Protocol.Compile }));
  (with_conn d @@ fun c ->
   check bool "sent" true (Client.send_payload c "not json");
   ignore (Client.read_response c));
  let doc =
    match Json.parse (metrics_rpc d) with
    | Ok j -> j
    | Error e -> Alcotest.failf "metrics result unparseable: %s" e
  in
  let text =
    match Json.parse (metrics_rpc ~format:"prometheus" d) with
    | Ok (Json.Str s) -> s
    | _ -> Alcotest.fail "exposition is not a JSON string"
  in
  (* every exported row, in exposition order: sample name, document key *)
  let rows =
    [
      ("overify_uptime_seconds", "uptime_s");
      ("overify_queue_depth", "queue_depth");
      ("overify_requests_total", "requests");
      ("overify_executed_total", "executed");
      ("overify_dedup_hits_total", "dedup_hits");
      ("overify_malformed_total", "malformed");
      ("overify_errors_total", "errors");
      ("overify_requests_shed_total", "requests_shed");
      ("overify_cancelled_total", "cancelled");
      ("overify_deadline_exceeded_total", "deadline_exceeded");
      ("overify_watchdog_fired_total", "watchdog_fired");
      ("overify_idle_reaped_total", "idle_reaped");
      ("overify_degraded_total", "degraded");
      ("overify_flight_dumps_total", "flight_dumps");
      ("overify_store_entries", "store_entries");
      ("overify_store_hits_total", "store_hits");
      ("overify_engine_queries_total", "engine_queries");
      ("overify_engine_cache_hits_total", "engine_cache_hits");
      ("overify_solver_time_seconds_total", "solver_time_s");
    ]
  in
  let samples =
    String.split_on_char '\n' text
    |> List.filter (fun l ->
           l <> "" && l.[0] <> '#'
           && not (contains l "overify_request_latency_seconds"))
    |> List.map (fun l ->
           match String.split_on_char ' ' l with
           | [ name; v ] -> (name, float_of_string v)
           | _ -> Alcotest.failf "unexpected sample line: %s" l)
  in
  check (Alcotest.list string) "exported rows" (List.map fst rows)
    (List.map fst samples);
  let json_value key =
    match Option.bind (Json.mem doc key) Json.num with
    | Some v -> v
    | None -> Alcotest.failf "metrics document lacks %S" key
  in
  List.iter
    (fun (name, v) ->
      let jv = json_value (List.assoc name rows) in
      match name with
      | "overify_uptime_seconds" ->
          check bool "uptime only advances" true (v >= jv)
      | "overify_requests_total" ->
          (* the exposition fetch is itself one more request *)
          check (Alcotest.float 0.0) name (jv +. 1.0) v
      | _ -> check (Alcotest.float 0.0) name jv v)
    samples;
  (* the traffic above moved the counters: the equalities are not 0 = 0 *)
  List.iter
    (fun (key, want) -> check (Alcotest.float 0.0) key want (json_value key))
    [ ("requests", 4.0); ("executed", 2.0); ("dedup_hits", 1.0);
      ("malformed", 1.0); ("errors", 1.0) ];
  check bool "store_entries > 0" true (json_value "store_entries" > 0.0)

let test_flight_record_after_fault () =
  (* a degraded request (contained crash fault) must leave a flight
     record carrying its trace id, loadable via the postmortem path *)
  Binfile.with_temp_dir "overify_serve_test" @@ fun dir ->
  let d = Serve.start ~flight_dir:dir () in
  Fun.protect ~finally:(fun () -> Serve.stop d) @@ fun () ->
  let trace =
    with_conn d @@ fun c ->
    match
      Client.rpc c { wc_request with Protocol.rq_faults = "crash@1" }
    with
    | Ok json ->
        check string "faulted request ok (contained)" "ok"
          (get_str json "status");
        get_str json "trace"
    | Error e -> Alcotest.failf "rpc: %s" (Protocol.frame_error_name e)
  in
  check bool "trace id shape" true
    (String.length trace > 3 && String.sub trace 0 3 = "rq-");
  (* the dump happens on the executor thread after the response; poll *)
  let deadline = Unix.gettimeofday () +. 5.0 in
  let rec find_dump () =
    let dumps =
      if Sys.file_exists dir then
        List.filter
          (fun f -> Filename.check_suffix f ".bin")
          (Array.to_list (Sys.readdir dir))
      else []
    in
    match dumps with
    | f :: _ -> Filename.concat dir f
    | [] ->
        if Unix.gettimeofday () > deadline then
          Alcotest.fail "no flight dump after degraded request"
        else begin
          Thread.delay 0.05;
          find_dump ()
        end
  in
  let path = find_dump () in
  match Flight.load path with
  | Error msg -> Alcotest.failf "flight load: %s" msg
  | Ok fd ->
      check string "dump reason" "degraded" fd.Flight.fd_reason;
      check string "dump trace is the request's" trace fd.Flight.fd_trace;
      check bool "has records" true (fd.Flight.fd_records <> []);
      check bool "a record carries the request trace" true
        (List.exists
           (fun (r : Overify_obs.Obs.Flight.record) ->
             r.Overify_obs.Obs.Flight.fr_trace = trace)
           fd.Flight.fd_records);
      (* the engine's fault event made it into the ring *)
      check bool "fault.injected event recorded" true
        (List.exists
           (fun (r : Overify_obs.Obs.Flight.record) ->
             r.Overify_obs.Obs.Flight.fr_label = "fault.injected"
             && r.Overify_obs.Obs.Flight.fr_trace = trace)
           fd.Flight.fd_records)

let test_log_threshold_per_daemon () =
  (* daemon A logs at debug; starting daemon B at the default (warn) in
     the same process must not silence A.  fd 2 goes to a temp file for
     the duration. *)
  let path = Filename.temp_file "overify_serve_log" ".jsonl" in
  let trace_of d program =
    with_conn d @@ fun c ->
    match
      Client.rpc c
        {
          Protocol.default_request with
          Protocol.rq_kind = Protocol.Compile;
          rq_program = program;
        }
    with
    | Ok json -> get_str json "trace"
    | Error e -> Alcotest.failf "rpc: %s" (Protocol.frame_error_name e)
  in
  flush stderr;
  let saved = Unix.dup Unix.stderr in
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  Unix.dup2 fd Unix.stderr;
  Unix.close fd;
  let (trace_a, trace_b) =
    Fun.protect
      ~finally:(fun () ->
        flush stderr;
        Unix.dup2 saved Unix.stderr;
        Unix.close saved)
      (fun () ->
        Binfile.with_temp_dir "overify_serve_test" @@ fun dir ->
        let a =
          Serve.start ~socket:(Filename.concat dir "a.sock")
            ~log_level:Log.Debug ()
        in
        Fun.protect ~finally:(fun () -> Serve.stop a) @@ fun () ->
        let b = Serve.start ~socket:(Filename.concat dir "b.sock") () in
        Fun.protect ~finally:(fun () -> Serve.stop b) @@ fun () ->
        (trace_of a "true", trace_of b "false"))
  in
  let log = In_channel.with_open_text path In_channel.input_all in
  Sys.remove path;
  let admitted trace =
    List.exists
      (fun line ->
        contains line "\"event\": \"request.admit\""
        && contains line ("\"trace\": \"" ^ trace ^ "\""))
      (String.split_on_char '\n' log)
  in
  if not (admitted trace_a) then
    Alcotest.failf "daemon A (debug) logged no request.admit for %s:\n%s"
      trace_a log;
  if admitted trace_b then
    Alcotest.failf "daemon B (warn) logged request.admit for %s:\n%s"
      trace_b log

(* two daemons in one process, neither given a socket: each listens on
   its own path, and a request sent to one is executed by that one *)
let test_default_sockets_distinct () =
  let a = Serve.start () in
  Fun.protect ~finally:(fun () -> Serve.stop a) @@ fun () ->
  let b = Serve.start () in
  Fun.protect ~finally:(fun () -> Serve.stop b) @@ fun () ->
  check bool "distinct default sockets" true
    (Serve.socket_path a <> Serve.socket_path b);
  (with_conn a @@ fun c ->
   match Client.rpc c wc_request with
   | Ok json -> check string "verify ok" "ok" (get_str json "status")
   | Error e -> Alcotest.failf "rpc: %s" (Protocol.frame_error_name e));
  check int "A executed the verify" 1 (daemon_stat a "executed");
  check int "B executed nothing" 0 (daemon_stat b "executed")

(* a second daemon on a path where a live daemon accepts is refused and
   the first keeps its socket; a socket file nobody accepts on is stale
   and is replaced *)
let test_live_socket_refused () =
  Binfile.with_temp_dir "overify_serve_test" @@ fun dir ->
  let sock = Filename.concat dir "live.sock" in
  let a = Serve.start ~socket:sock () in
  (Fun.protect ~finally:(fun () -> Serve.stop a) @@ fun () ->
   (match Serve.start ~socket:sock () with
   | b ->
       Serve.stop b;
       Alcotest.fail "a second daemon took a live daemon's socket"
   | exception Unix.Unix_error (Unix.EADDRINUSE, "Serve.start", p) ->
       check string "refusal names the path" sock p);
   check bool "socket file kept" true (Sys.file_exists sock);
   with_conn a @@ fun c ->
   match Client.rpc c wc_request with
   | Ok json ->
       check string "first daemon still answers" "ok" (get_str json "status")
   | Error e -> Alcotest.failf "rpc: %s" (Protocol.frame_error_name e));
  let stale = Filename.concat dir "stale.sock" in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX stale);
  Unix.close fd;
  let c = Serve.start ~socket:stale () in
  Fun.protect ~finally:(fun () -> Serve.stop c) @@ fun () ->
  check int "stale socket replaced" 0 (daemon_stat c "executed")

(* ------------- store lifecycle under concurrency ------------- *)

let test_write_atomic_race () =
  (* two in-process writers racing write_atomic on ONE path: every read
     observes one complete frame, never an interleaving of the two (the
     per-write unique temp name is what guarantees this; a pid-only temp
     name makes this test fail) *)
  Binfile.with_temp_dir "overify_serve_test" @@ fun dir ->
  let path = Filename.concat dir "contended.bin" in
  let magic = "RACE-TEST" and version = 1 in
  let payload_a = String.make 8192 'a' and payload_b = String.make 8192 'b' in
  let iters = 150 in
  let writer payload () =
    for _ = 1 to iters do
      ignore (Binfile.write ~path ~magic ~version payload)
    done
  in
  let torn = ref 0 and reads = ref 0 in
  let reader () =
    while !reads < iters do
      (* probe existence BEFORE the read: a first write landing between a
         failed read and the check must not be miscounted as a torn read *)
      (let existed = Sys.file_exists path in
       match Binfile.read ~path ~magic ~version with
       | Some p ->
           incr reads;
           if p <> payload_a && p <> payload_b then incr torn
       | None ->
           (* the file exists after the first write and is never removed;
              from then on every read must validate *)
           if existed then incr torn);
      Thread.yield ()
    done
  in
  let ths =
    [ Thread.create (writer payload_a) (); Thread.create (writer payload_b) ();
      Thread.create reader () ]
  in
  List.iter Thread.join ths;
  check int "no torn or invalid reads" 0 !torn;
  check bool "reader actually read" true (!reads >= iters)

let store_queries () =
  let x = Bv.var 8 910 and y = Bv.var 8 911 in
  [
    [ Bv.cmp Bv.Ugt x (Bv.const 8 200L) ];
    [ Bv.cmp Bv.Ult x (Bv.const 8 5L); Bv.cmp Bv.Ugt x (Bv.const 8 10L) ];
    [ Bv.cmp Bv.Eq (Bv.binop Bv.Add x y) (Bv.const 8 77L) ];
  ]

let test_store_save_race () =
  (* a store save racing other saves of the same directory (the daemon's
     periodic save vs. an engine's end-of-run save): concurrent loads
     must always see a valid file — lost updates are acceptable for a
     cache, torn files are not *)
  Binfile.with_temp_dir "overify_serve_test" @@ fun dir ->
  let st = Store.load ~dir () in
  let c = Solver.create ~cache:true ~store:st () in
  List.iter (fun q -> ignore (Solver.check c q)) (store_queries ());
  Store.save st;
  let iters = 120 in
  let saver () =
    for i = 1 to iters do
      Store.add st (Printf.sprintf "key-%d-%d" (Thread.id (Thread.self ())) i)
        Store.E_unsat;
      Store.save st
    done
  in
  let invalid = ref 0 in
  let loader () =
    for _ = 1 to iters do
      (* a fresh load must always parse; the querying context's verdicts
         must be reproduced from whatever snapshot it sees *)
      let st' = Store.load ~dir () in
      if Store.loaded st' = 0 then incr invalid;
      Thread.yield ()
    done
  in
  let ths =
    [ Thread.create saver (); Thread.create saver (); Thread.create loader () ]
  in
  List.iter Thread.join ths;
  check int "every concurrent load saw a valid store file" 0 !invalid

(* ------------- deadlines, admission control, watchdog ------------- *)

let stall_request ~timeout =
  { wc_request with Protocol.rq_faults = "stall@1"; rq_timeout = timeout }

(** Poll a daemon-side predicate (10ms ticks, ~5s budget). *)
let eventually ?(tries = 500) p =
  let rec go n = n > 0 && (p () || (Thread.delay 0.01; go (n - 1))) in
  go tries

let error_field json key =
  match Json.parse (get_raw json "error") with
  | Ok e -> Json.mem e key
  | Error _ -> None

let error_kind json =
  match error_field json "kind" with Some (Json.Str s) -> s | _ -> "<none>"

let error_message json =
  match error_field json "message" with Some (Json.Str s) -> s | _ -> "<none>"

let rpc_json c rq =
  match Client.rpc c rq with
  | Ok json -> json
  | Error e -> Alcotest.failf "rpc: %s" (Protocol.frame_error_name e)

let test_served_tv_warm_store () =
  (* tv obligations read and fill the daemon's warm store like verify
     runs: the same source again, under a new fingerprint, adds nothing,
     and its product runs' store hits and queries reach the metrics.
     echo -OVERIFY at n=2 finishes every obligation inside
     Tv.default_config, so no verdict depends on timing *)
  with_daemon @@ fun d ->
  let tv timeout =
    with_conn d @@ fun c ->
    let json =
      rpc_json c
        {
          wc_request with
          Protocol.rq_kind = Protocol.Tv;
          rq_program = "echo";
          rq_level = "OVERIFY";
          rq_input_size = 2;
          rq_timeout = timeout;
        }
    in
    check string "tv answered" "ok" (get_str json "status");
    check bool "every obligation decided" true
      (contains (get_raw json "result") "\"inconclusive\": 0");
    json
  in
  ignore (tv 30.0);
  let entries = daemon_stat d "store_entries" in
  check bool "the tv request filled the store" true (entries > 0);
  let hits = daemon_stat d "store_hits"
  and queries = daemon_stat d "engine_queries" in
  let again = tv 29.0 in
  check string "a new fingerprint runs again" "miss" (get_str again "dedup");
  check int "the second tv request added no entry" entries
    (daemon_stat d "store_entries");
  check bool "its store hits reach the metrics" true
    (daemon_stat d "store_hits" > hits);
  check bool "its engine queries reach the metrics" true
    (daemon_stat d "engine_queries" > queries)

(* a malformed MiniC source is the client's mistake, not a daemon fault:
   every kind that compiles answers compile_error, and none cuts an
   internal-error flight dump *)
let test_compile_error_answered () =
  Binfile.with_temp_dir "overify_serve_test" @@ fun dir ->
  let d = Serve.start ~flight_dir:dir () in
  Fun.protect ~finally:(fun () -> Serve.stop d) @@ fun () ->
  List.iter
    (fun kind ->
      let json =
        with_conn d @@ fun c ->
        rpc_json c
          {
            Protocol.default_request with
            Protocol.rq_kind = kind;
            rq_source = "int main(void) { return 1 +; }";
            rq_deterministic = true;
          }
      in
      check string
        (Protocol.kind_name kind ^ " error kind")
        "compile_error" (error_kind json))
    [ Protocol.Verify; Protocol.Compile; Protocol.Tv ];
  check int "no flight dumps" 0 (daemon_stat d "flight_dumps")

(** Occupy the single executor with a wedged solver ([stall@1] polls only
    the explicit cancel flag, so the job runs past its deadline until the
    watchdog cancels it) and hand back the occupier's envelope cell plus
    its thread for joining. *)
let occupy d ~timeout =
  let out = ref "" in
  let th =
    Thread.create
      (fun () ->
        with_conn d @@ fun c -> out := rpc_json c (stall_request ~timeout))
      ()
  in
  check bool "occupier reached the executor" true
    (eventually (fun () ->
         daemon_stat d "inflight" >= 1
         && daemon_stat d "queue_depth" = 0
         && daemon_stat d "executed" = 0));
  (th, out)

let test_read_frame_timeouts () =
  let (a, b) = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      try Unix.close b with Unix.Unix_error _ -> ())
    (fun () ->
      (* no bytes at all before the timeout: an idle connection *)
      (match Protocol.read_frame ~idle_timeout:0.05 a with
      | Error Protocol.Idle -> ()
      | Ok _ -> Alcotest.fail "idle read returned a frame"
      | Error e ->
          Alcotest.failf "idle read: %s" (Protocol.frame_error_name e));
      (* the magic arrives, then silence: a slowloris half-frame *)
      let n =
        Unix.write_substring b Protocol.magic 0 (String.length Protocol.magic)
      in
      check int "magic written" (String.length Protocol.magic) n;
      (match Protocol.read_frame ~idle_timeout:5.0 ~frame_timeout:0.05 a with
      | Error Protocol.Timed_out -> ()
      | Ok _ -> Alcotest.fail "half-frame returned a frame"
      | Error e ->
          Alcotest.failf "half-frame read: %s" (Protocol.frame_error_name e));
      check string "mid-frame expiry is the answerable one" "timeout"
        (Protocol.frame_error_name Protocol.Timed_out);
      check string "idle expiry is reaped silently" "idle"
        (Protocol.frame_error_name Protocol.Idle))

(* the daemon's own read deadlines: a peer stalled mid-frame is answered
   bad_frame:timeout, a silent one is closed without a byte.  The peers
   read with deadlines of their own, so a daemon that never answers
   fails the case instead of hanging it. *)
let test_slow_and_idle_peers () =
  let d = Serve.start ~idle_timeout:0.25 ~frame_timeout:0.25 () in
  Fun.protect ~finally:(fun () -> Serve.stop d) @@ fun () ->
  let with_peer f =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
    Unix.connect fd (Unix.ADDR_UNIX (Serve.socket_path d));
    f fd
  in
  (with_peer @@ fun fd ->
   let n =
     Unix.write_substring fd Protocol.magic 0 (String.length Protocol.magic)
   in
   check int "magic written" (String.length Protocol.magic) n;
   match Protocol.read_frame ~idle_timeout:5.0 ~frame_timeout:5.0 fd with
   | Ok json ->
       check string "stalled peer: error kind" "bad_frame" (error_kind json);
       check string "stalled peer: message" "timeout" (error_message json)
   | Error e ->
       Alcotest.failf "stalled peer got no answer: %s"
         (Protocol.frame_error_name e));
  (with_peer @@ fun fd ->
   match Protocol.read_frame ~idle_timeout:5.0 fd with
   | Error Protocol.Closed -> ()
   | Ok json -> Alcotest.failf "silent peer was answered: %s" json
   | Error e ->
       Alcotest.failf "silent peer not closed: %s"
         (Protocol.frame_error_name e));
  check bool "idle connection reaped" true (daemon_stat d "idle_reaped" >= 1);
  check bool "stalled frame counted malformed" true
    (daemon_stat d "malformed" >= 1)

let test_deadline_while_queued () =
  let d = Serve.start ~grace:0.4 () in
  Fun.protect ~finally:(fun () -> Serve.stop d) @@ fun () ->
  let (occ_t, occ) = occupy d ~timeout:0.8 in
  (* a queued probe whose deadline lapses while the executor is wedged:
     the watchdog answers it without the engine ever seeing it *)
  let json =
    with_conn d @@ fun c ->
    rpc_json c { wc_request with Protocol.rq_timeout = 0.1; rq_id = 7 }
  in
  golden_walk json
    [
      "{"; "\"id\": 7"; "\"status\": \"error\""; "\"kind\": \"verify\"";
      "\"dedup\": \"miss\"";
      "\"error\": {\"kind\": \"deadline_exceeded\"";
      "\"message\": \"deadline expired while queued\"";
      "\"result\": null"; "}";
    ];
  check int "probe never executed" 0 (daemon_stat d "executed");
  Thread.join occ_t;
  check string "occupier degraded to deadline_exceeded" "deadline_exceeded"
    (error_kind !occ);
  check bool "occupier was freed by the watchdog" true
    (String.length (error_message !occ) >= 8
    && String.sub (error_message !occ) 0 8 = "watchdog");
  check int "watchdog fired exactly once" 1 (daemon_stat d "watchdog_fired");
  check bool "the watchdog's cancel counted" true
    (daemon_stat d "cancelled" >= 1);
  check bool "both deadline answers counted" true
    (daemon_stat d "deadline_exceeded" >= 2);
  (* the daemon keeps serving after wedge recovery *)
  with_conn d @@ fun c ->
  check string "daemon healthy after watchdog" "ok"
    (get_str (rpc_json c wc_request) "status")

let test_deadline_mid_run () =
  (* a deadline that lapses mid-symex: the engine self-cancels at its
     next cooperative check point and the envelope carries the partial
     result with its deadline_exceeded degradation entry *)
  with_daemon @@ fun d ->
  let json =
    with_conn d @@ fun c ->
    rpc_json c
      { wc_request with Protocol.rq_input_size = 8; rq_timeout = 0.02 }
  in
  check string "status" "error" (get_str json "status");
  check string "error kind" "deadline_exceeded" (error_kind json);
  check string "cooperative self-cancel, not the watchdog"
    "deadline exceeded" (error_message json);
  let result = get_raw json "result" in
  check bool "partial result rides along" true (result <> "null");
  check bool "run marked incomplete" true
    (contains result "\"complete\": false");
  check bool "degradation entry recorded" true
    (contains result "\"deadline_exceeded\"");
  check int "watchdog stayed out of it" 0 (daemon_stat d "watchdog_fired")

let test_served_tv_deadline () =
  (* every tv obligation checks the request's token: the validation stops
     at its deadline instead of holding the executor until the watchdog *)
  with_daemon @@ fun d ->
  let t0 = Unix.gettimeofday () in
  let json =
    with_conn d @@ fun c ->
    rpc_json c
      {
        wc_request with
        Protocol.rq_kind = Protocol.Tv;
        rq_level = "OVERIFY";
        rq_input_size = 3;
        rq_timeout = 0.5;
      }
  in
  let elapsed = Unix.gettimeofday () -. t0 in
  check string "error kind" "deadline_exceeded" (error_kind json);
  check string "cooperative self-cancel, not the watchdog"
    "deadline exceeded" (error_message json);
  check string "no partial report" "null" (get_raw json "result");
  check bool (Printf.sprintf "answered in %.2fs (< 2s)" elapsed) true
    (elapsed < 2.0);
  check int "watchdog stayed out of it" 0 (daemon_stat d "watchdog_fired")

let test_cancelled_retry_byte_identity () =
  with_daemon @@ fun d ->
  let attempt =
    { wc_request with Protocol.rq_input_size = 8; rq_timeout = 0.02 }
  in
  (* 1. the first attempt dies on its deadline, partially warming the
     shared solver store and summary cache *)
  (with_conn d @@ fun c ->
   let json = rpc_json c attempt in
   check string "first attempt cancelled" "deadline_exceeded"
     (error_kind json));
  (* 2. transient answers never enter the recent-dedup cache: the same
     fingerprint re-executes instead of replaying the stale refusal *)
  (with_conn d @@ fun c ->
   let json = rpc_json c { attempt with Protocol.rq_id = 2 } in
   check string "transient answer not cached: fresh miss" "miss"
     (get_str json "dedup"));
  (* 3. the retried run (adequate deadline) must be byte-identical to
     the cold one-shot document despite the partially-warmed store *)
  let retried =
    with_conn d @@ fun c ->
    let json = rpc_json c wc_request in
    check string "retry ok" "ok" (get_str json "status");
    get_raw json "result"
  in
  check string "cancelled-then-retried run is byte-identical"
    (oneshot_verify_json ~level:"O0" ~input_size:1 ~faults:"" ())
    retried

let test_queue_cap_exact_sheds () =
  (* cap 1: one running + one queued; every distinct probe beyond that
     must shed — exactly N sheds, zero transport failures, each with the
     machine-readable overloaded envelope and a sane retry hint *)
  let d = Serve.start ~queue_cap:1 ~grace:0.4 () in
  Fun.protect ~finally:(fun () -> Serve.stop d) @@ fun () ->
  let (occ_t, occ) = occupy d ~timeout:1.0 in
  let filler = ref "" in
  let fill_t =
    Thread.create
      (fun () ->
        with_conn d @@ fun c ->
        filler :=
          rpc_json c
            { wc_request with Protocol.rq_level = "O2"; rq_timeout = 25.0 })
      ()
  in
  check bool "filler queued" true
    (eventually (fun () -> daemon_stat d "queue_depth" >= 1));
  let n = 3 in
  let sheds =
    List.init n (fun i ->
        with_conn d @@ fun c ->
        rpc_json c
          {
            wc_request with
            Protocol.rq_id = 10 + i;
            (* epsilon timeouts: distinct fingerprints defeat dedup *)
            rq_timeout = 29.0 -. (0.001 *. float_of_int i);
          })
  in
  List.iteri
    (fun i json ->
      golden_walk json
        [
          "{"; Printf.sprintf "\"id\": %d" (10 + i);
          "\"status\": \"error\""; "\"dedup\": \"none\"";
          "\"error\": {\"kind\": \"overloaded\""; "\"message\":";
          "\"retry_after_ms\":"; "\"result\": null"; "}";
        ];
      check bool (Printf.sprintf "probe %d hint at or above the floor" i)
        true
        (match Option.bind (error_field json "retry_after_ms") Json.int_ with
        | Some ms -> ms >= 25
        | None -> false))
    sheds;
  check int "exactly N sheds, none leaked to the executor" n
    (daemon_stat d "requests_shed");
  Thread.join occ_t;
  Thread.join fill_t;
  check string "occupier degraded to deadline_exceeded" "deadline_exceeded"
    (error_kind !occ);
  check string "filler ran to completion after recovery" "ok"
    (get_str !filler "status");
  check int "sheds still exactly N after drain" n
    (daemon_stat d "requests_shed")

let test_client_retry_backoff () =
  (* queue_cap 0 sheds every verify: the retrying client must re-send on
     a fresh connection per attempt and surface the final overloaded
     answer rather than a transport error *)
  let d = Serve.start ~queue_cap:0 () in
  Fun.protect ~finally:(fun () -> Serve.stop d) @@ fun () ->
  match
    Client.rpc_retry ~socket:(Serve.socket_path d) ~retries:2 ~backoff_ms:1
      wc_request
  with
  | Error e -> Alcotest.failf "retry surfaced a transport error: %s" e
  | Ok json ->
      check string "final answer still overloaded" "overloaded"
        (error_kind json);
      check int "every attempt reached the daemon and was shed" 3
        (daemon_stat d "requests_shed")

let test_shutdown_drains_inflight () =
  (* a request in flight when shutdown arrives must still be answered *)
  let d = Serve.start () in
  let result = ref "" in
  let requester =
    Thread.create
      (fun () ->
        with_conn d @@ fun c ->
        match Client.rpc c { wc_request with Protocol.rq_level = "O2" } with
        | Ok json -> result := get_str json "status"
        | Error e -> result := "transport:" ^ Protocol.frame_error_name e)
      ()
  in
  (* give the request a moment to be submitted, then stop concurrently *)
  Thread.delay 0.05;
  Serve.stop d;
  Thread.join requester;
  check bool "in-flight request answered across shutdown" true
    (!result = "ok" || !result = "error");
  check bool "not dropped on the floor" true
    (String.length !result < 10 || String.sub !result 0 9 <> "transport")

let () =
  Alcotest.run "serve"
    [
      ( "json",
        [
          Alcotest.test_case "round-trip documents" `Quick
            test_json_roundtrip_docs;
          Alcotest.test_case "rejects malformed" `Quick test_json_rejects;
          Alcotest.test_case "deep nesting is an error, not a crash" `Quick
            test_json_deep_nesting_safe;
          Alcotest.test_case "control characters round-trip" `Quick
            test_json_control_chars;
        ] );
      ( "protocol",
        [
          QCheck_alcotest.to_alcotest test_request_roundtrip;
          QCheck_alcotest.to_alcotest test_frame_roundtrip;
          Alcotest.test_case "fingerprint semantics" `Quick
            test_fingerprint_semantics;
          Alcotest.test_case "request validation" `Quick test_request_rejects;
          Alcotest.test_case "extract_field" `Quick test_extract_field;
          QCheck_alcotest.to_alcotest test_extract_field_members;
        ] );
      ( "hardening",
        [
          Alcotest.test_case "garbage frame" `Quick test_garbage_frame;
          Alcotest.test_case "truncated frame" `Quick test_truncated_frame;
          Alcotest.test_case "oversized frame" `Quick test_oversized_frame;
          Alcotest.test_case "bad json keeps connection" `Quick
            test_bad_json_keeps_connection;
          Alcotest.test_case "bad requests answered" `Quick
            test_bad_request_errors;
          Alcotest.test_case "injected kill contained" `Quick
            test_injected_kill_contained;
          Alcotest.test_case "compile error answered" `Quick
            test_compile_error_answered;
        ] );
      ( "dedup",
        [
          Alcotest.test_case "n identical concurrent requests, 1 execution"
            `Quick test_dedup_identical_concurrent;
          Alcotest.test_case "no false sharing across kinds/levels" `Quick
            test_dedup_kind_isolation;
          Alcotest.test_case "recent cache evicts the oldest" `Quick
            test_dedup_recent_eviction;
        ] );
      ( "differential",
        [
          Alcotest.test_case "serve = cli at O0" `Quick test_differential_o0;
          Alcotest.test_case "serve = cli at OVERIFY" `Quick
            test_differential_overify;
          Alcotest.test_case "serve = cli under injected faults" `Quick
            test_differential_faults;
          Alcotest.test_case "warm daemon = cold one-shot" `Quick
            test_differential_warm_store;
        ] );
      ( "envelope",
        [
          Alcotest.test_case "golden keys (ok)" `Quick
            test_envelope_golden_keys;
          Alcotest.test_case "golden keys (error)" `Quick
            test_error_envelope_golden_keys;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "metrics op golden keys" `Quick
            test_metrics_golden_keys;
          Alcotest.test_case "prometheus exposition parses" `Quick
            test_prometheus_exposition;
          Alcotest.test_case "metrics JSON and prometheus agree" `Quick
            test_metrics_renderings_agree;
          Alcotest.test_case "injected fault leaves a flight record" `Quick
            test_flight_record_after_fault;
          Alcotest.test_case "log threshold is per daemon" `Quick
            test_log_threshold_per_daemon;
          Alcotest.test_case "default sockets are per daemon" `Quick
            test_default_sockets_distinct;
          Alcotest.test_case "a live socket is not taken over" `Quick
            test_live_socket_refused;
        ] );
      ( "store-lifecycle",
        [
          Alcotest.test_case "write_atomic race never tears" `Quick
            test_write_atomic_race;
          Alcotest.test_case "racing store saves stay loadable" `Quick
            test_store_save_race;
          Alcotest.test_case "served tv shares the warm store" `Quick
            test_served_tv_warm_store;
        ] );
      ( "deadline",
        [
          Alcotest.test_case "read_frame idle / mid-frame timeouts" `Quick
            test_read_frame_timeouts;
          Alcotest.test_case "slow and idle peers" `Quick
            test_slow_and_idle_peers;
          Alcotest.test_case "deadline lapses while queued" `Quick
            test_deadline_while_queued;
          Alcotest.test_case "deadline lapses mid-run (partial result)"
            `Quick test_deadline_mid_run;
          Alcotest.test_case "served tv stops at its deadline" `Quick
            test_served_tv_deadline;
          Alcotest.test_case "cancelled-then-retried byte identity" `Quick
            test_cancelled_retry_byte_identity;
          Alcotest.test_case "queue cap: exact sheds, golden envelope"
            `Quick test_queue_cap_exact_sheds;
          Alcotest.test_case "client retry surfaces final overload" `Quick
            test_client_retry_backoff;
        ] );
      ( "replay",
        [
          Alcotest.test_case "shutdown drains in-flight requests" `Quick
            test_shutdown_drains_inflight;
        ] );
    ]
