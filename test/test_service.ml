(* Tests for the partitioning service: the framing codec, the canonical
   content digest, the LRU, the protocol codec, and the daemon itself
   end-to-end over a real Unix-domain socket — submit, cache hit on a
   permuted resubmission, backpressure, cancellation, timeout, malformed
   frames, graceful shutdown. *)

module J = Obs.Json

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool
let checks = Alcotest.check Alcotest.string

(* ------------------------------------------------------------------ *)
(* Codec                                                              *)
(* ------------------------------------------------------------------ *)

let test_codec_roundtrip () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let doc =
    J.Obj
      [
        ("verb", J.String "submit");
        ("netlist", J.String (String.make 1000 'x'));
        ("n", J.Int 42);
      ]
  in
  checkb "first written" true (Result.is_ok (Service.Codec.write_frame a doc));
  checkb "second written" true
    (Result.is_ok (Service.Codec.write_frame a (J.List [ J.Null ])));
  (match Service.Codec.read_frame b with
  | Ok doc' -> checkb "first frame" true (doc = doc')
  | Error e -> Alcotest.fail (Service.Codec.read_error_to_string e));
  (match Service.Codec.read_frame b with
  | Ok doc' -> checkb "second frame" true (doc' = J.List [ J.Null ])
  | Error e -> Alcotest.fail (Service.Codec.read_error_to_string e));
  Unix.close a;
  (* Clean EOF at a frame boundary. *)
  (match Service.Codec.read_frame b with
  | Error `Eof -> ()
  | _ -> Alcotest.fail "expected Eof");
  Unix.close b

let test_codec_bad_frames () =
  let write_raw fd s =
    ignore (Unix.write fd (Bytes.of_string s) 0 (String.length s))
  in
  (* Oversized declared length is rejected before any payload read. *)
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  write_raw a "\xff\xff\xff\xff";
  (match Service.Codec.read_frame b with
  | Error (`Oversized _) -> ()
  | _ -> Alcotest.fail "expected Oversized");
  Unix.close a;
  Unix.close b;
  (* Truncated payload. *)
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  write_raw a "\x00\x00\x00\x0a{\"a\"";
  Unix.close a;
  (match Service.Codec.read_frame b with
  | Error `Truncated -> ()
  | _ -> Alcotest.fail "expected Truncated");
  Unix.close b;
  (* Valid frame, invalid JSON. *)
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  write_raw a "\x00\x00\x00\x05hello";
  (match Service.Codec.read_frame b with
  | Error (`Malformed _) -> ()
  | _ -> Alcotest.fail "expected Malformed");
  Unix.close a;
  Unix.close b


(* A request whose frame is past the cap is refused before a byte of it
   is written: the daemon would read its length prefix and close. *)
let test_codec_frame_cap () =
  let path = Test_util.temp_socket () in
  let listener = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listener (Unix.ADDR_UNIX path);
  Unix.listen listener 1;
  let conn =
    match Service.Client.connect path with
    | Ok conn -> conn
    | Error e -> Alcotest.fail e
  in
  let peer, _ = Unix.accept listener in
  let request =
    Service.Protocol.Submit
      {
        name = "big";
        format = Service.Protocol.Bench;
        netlist = String.make (17 * 1024 * 1024) 'x';
        options = Core.Kway.Options.default;
        envelope = Service.Protocol.default_envelope;
      }
  in
  (match Service.Client.request conn request with
  | Ok _ -> Alcotest.fail "a 17 MiB request was answered"
  | Error msg ->
      checkb msg true
        (String.starts_with ~prefix:"frame of " msg
        && String.ends_with
             ~suffix:" bytes exceeds the 16 MiB (16777216-byte) frame limit"
             msg));
  Unix.set_nonblock peer;
  (match Unix.read peer (Bytes.create 1) 0 1 with
  | n -> Alcotest.failf "the peer read %d bytes" n
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ());
  Service.Client.close conn;
  Unix.close peer;
  Unix.close listener;
  Sys.remove path

(* ------------------------------------------------------------------ *)
(* LRU                                                                *)
(* ------------------------------------------------------------------ *)

let test_lru () =
  let l = Service.Lru.create ~cap:2 in
  Service.Lru.add l "a" 1;
  Service.Lru.add l "b" 2;
  checki "len" 2 (Service.Lru.length l);
  (* Touch "a" so "b" is the eviction victim. *)
  checkb "find a" true (Service.Lru.find l "a" = Some 1);
  Service.Lru.add l "c" 3;
  checki "len capped" 2 (Service.Lru.length l);
  checkb "b evicted" true (Service.Lru.find l "b" = None);
  checkb "a kept" true (Service.Lru.find l "a" = Some 1);
  checkb "c kept" true (Service.Lru.find l "c" = Some 3);
  (* Overwriting a key does not grow the table. *)
  Service.Lru.add l "c" 30;
  checki "len stable" 2 (Service.Lru.length l);
  checkb "c updated" true (Service.Lru.find l "c" = Some 30);
  match Service.Lru.create ~cap:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "cap 0 accepted"

(* ------------------------------------------------------------------ *)
(* Digest: canonicalisation and cache keys                            *)
(* ------------------------------------------------------------------ *)

(* A semantics-preserving permutation of a .bench text: INPUT lines
   first (unchanged), everything else reversed. The parser resolves
   names independent of order, so this parses to the same circuit
   modulo node numbering. *)
let permute_bench text =
  let lines = String.split_on_char '\n' text in
  let is_input l = String.length l >= 5 && String.sub l 0 5 = "INPUT" in
  let inputs = List.filter is_input lines in
  let rest =
    List.filter (fun l -> (not (is_input l)) && String.trim l <> "") lines
  in
  String.concat "\n" (inputs @ List.rev rest) ^ "\n"

let parse_ok text =
  match Netlist.Bench_format.parse text with
  | Ok c -> c
  | Error e -> Alcotest.fail e

let test_digest_permutation_invariant () =
  let c = Netlist.Generator.alu ~bits:8 () in
  let text = Netlist.Bench_format.to_string c in
  let c1 = parse_ok text and c2 = parse_ok (permute_bench text) in
  let fingerprint c =
    Service.Digest.hypergraph_fingerprint
      (Techmap.Mapper.to_hypergraph
         (Techmap.Mapper.map (Service.Digest.canonical_circuit c)))
  in
  checks "canonical fingerprints agree" (fingerprint c1) (fingerprint c2);
  (* Canonicalisation reorders nodes but preserves behaviour: compare
     simulations with inputs and outputs matched by signal name. *)
  let canon = Service.Digest.canonical_circuit c1 in
  let names c ids =
    Array.map (fun i -> (Netlist.Circuit.node c i).Netlist.Circuit.name) ids
  in
  let in1 = names c1 c1.Netlist.Circuit.inputs
  and in2 = names canon canon.Netlist.Circuit.inputs
  and out1 = names c1 c1.Netlist.Circuit.outputs
  and out2 = names canon canon.Netlist.Circuit.outputs in
  let reindex src dst vec =
    let tbl = Hashtbl.create 64 in
    Array.iteri (fun i n -> Hashtbl.replace tbl n vec.(i)) src;
    Array.map (fun n -> Hashtbl.find tbl n) dst
  in
  let rng = Netlist.Rng.create 5 in
  let vecs1 = Netlist.Simulate.random_vectors rng c1 16 in
  let vecs2 = Array.map (reindex in1 in2) vecs1 in
  let r1 = Netlist.Simulate.run c1 vecs1
  and r2 = Netlist.Simulate.run canon vecs2 in
  Array.iteri
    (fun cycle row1 ->
      checkb "canonical circuit equivalent" true
        (reindex out1 out2 row1 = r2.(cycle)))
    r1


(* [Digest.canonical_circuit] as it was before its body became a call to
   [Elaborate.canonical] lives in test/reference_digest.ml. *)
let random_circuit seed =
  let rng = Netlist.Rng.create seed in
  if Netlist.Rng.bool rng then
    Netlist.Generator.random ~rng
      ~num_inputs:(Netlist.Rng.int_in rng 1 8)
      ~num_gates:(Netlist.Rng.int_in rng 1 120)
      ~num_dff:(Netlist.Rng.int rng 10)
      ~num_outputs:(Netlist.Rng.int_in rng 1 8) ()
  else
    Netlist.Generator.scale
      {
        Netlist.Generator.default_scale with
        sc_gates = Netlist.Rng.int_in rng 60 400;
        sc_seed = Netlist.Rng.int rng 1000;
      }

let qcheck_canonical_reference =
  QCheck.Test.make ~name:"canonical_circuit = reference" ~count:100
    QCheck.small_int (fun seed ->
      let c = random_circuit seed in
      (* The parser's order too: a permuted text numbers nodes apart. *)
      let permuted =
        parse_ok (permute_bench (Netlist.Bench_format.to_string c))
      in
      List.for_all
        (fun c ->
          Service.Digest.canonical_circuit c
          = References.Reference_digest.canonical_circuit c)
        [ c; permuted ])

(* The resubmit path hashes and runs [Delta.apply]'s circuit as it is,
   because it is already in the digest's canonical form: node for node
   what [canonical_circuit] makes of it. *)
let applied_is_canonical c delta =
  match Netlist.Delta.apply c delta with
  | Error e -> Alcotest.fail (Netlist.Delta.error_to_string e)
  | Ok edited -> edited = Service.Digest.canonical_circuit edited

let qcheck_applied_is_canonical =
  QCheck.Test.make ~name:"Delta.apply output is canonical" ~count:100
    QCheck.small_int (fun seed ->
      let c = random_circuit (seed + 7) in
      applied_is_canonical c (Netlist.Delta.random ~seed ~frac:0.05 c))

let test_suite_deltas_canonical () =
  List.iter
    (fun (e : Experiments.Suite.entry) ->
      let c = Lazy.force e.Experiments.Suite.circuit in
      checkb
        (e.Experiments.Suite.name ^ ": 1% delta applies in canonical form")
        true
        (applied_is_canonical c (Netlist.Delta.random ~seed:1 ~frac:0.01 c)))
    (Experiments.Suite.all ())

(* The reference read 0.583 Mw on s38584. *)
let test_canonical_allocation () =
  let c =
    Lazy.force
      (Option.get (Experiments.Suite.find "s38584")).Experiments.Suite.circuit
  in
  checkb "s38584 canonicalises as the reference does" true
    (Service.Digest.canonical_circuit c
    = References.Reference_digest.canonical_circuit c);
  let words =
    Test_util.words_during (fun () ->
        ignore (Service.Digest.canonical_circuit c))
  in
  if words > 0.60e6 then
    Alcotest.failf
      "Digest.canonical_circuit allocated %.3f Mw on s38584 (bound 0.60)"
      (words /. 1e6)

let test_digest_options () =
  let base = Core.Kway.Options.make ~runs:3 ~seed:9 () in
  let same_but_jobs = Core.Kway.Options.make ~base ~jobs:8 () in
  let other_seed = Core.Kway.Options.make ~runs:3 ~seed:10 () in
  checks "jobs never shapes the key"
    (Service.Digest.options_fingerprint base)
    (Service.Digest.options_fingerprint same_but_jobs);
  checkb "seed shapes the key" true
    (Service.Digest.options_fingerprint base
     <> Service.Digest.options_fingerprint other_seed)

(* Identity floats. The options hold no float, so their fingerprint is
   the MD5 of their JSON rendering; a device-list float the rendering
   rounds (6 decimals) hashes apart from its rounded neighbour. *)
let test_digest_exact_floats () =
  let fp = Service.Digest.options_fingerprint in
  List.iter
    (fun (what, o) ->
      checks (what ^ " hashes its JSON rendering")
        (Stdlib.Digest.to_hex
           (Stdlib.Digest.string
              (J.to_string (Experiments.Obs_report.options_to_json o))))
        (fp o))
    [
      ("default", Core.Kway.Options.default);
      ( "multilevel",
        Core.Kway.Options.make
          ~strategy:(Core.Kway.Multilevel Core.Kway.Options.default_multilevel)
          () );
    ];
  let h =
    Techmap.Mapper.to_hypergraph
      (Techmap.Mapper.map
         (Service.Digest.canonical_circuit (Netlist.Generator.alu ~bits:8 ())))
  in
  let d util_low =
    Fpga.Library.make
      [
        Fpga.Device.make ~name:"D" ~capacity:4096 ~terminals:900 ~price:100.0
          ~util_low ~util_high:0.95 ();
      ]
  in
  let key library options = Service.Digest.job_key ~library ~options h in
  let o = Core.Kway.Options.default in
  checkb "util_low 0.5 and 0.5000001 key apart" true
    (key (d 0.5) o <> key (d 0.5000001) o);
  checks "equal libraries share a key" (key (d 0.5000001) o)
    (key (d 0.5000001) o);
  (* Recorded when the options lost their search-budget keys. *)
  checks "xc3000, default options" "71a04cbf4258440873090de666ad66bb"
    (key Fpga.Library.xc3000 o);
  checks "xc4000, multilevel with replication"
    "9a41fa3b679068c261e89e56ace90cef"
    (key Fpga.Library.xc4000
       (Core.Kway.Options.make ~replication:(`Functional 1)
          ~strategy:(Core.Kway.Multilevel Core.Kway.Options.default_multilevel)
          ()))

(* ------------------------------------------------------------------ *)
(* Options codec                                                      *)
(* ------------------------------------------------------------------ *)

(* The options fingerprint, and so every cache key, is the MD5 of
   exactly these bytes. *)
let test_options_json_pinned () =
  let render o =
    J.to_string (Experiments.Obs_report.options_to_json o)
  in
  checks "default"
    "{\n  \"runs\": 5,\n  \"seed\": 1,\n  \"replication\": \"none\",\n  \
     \"objective\": \"paper\",\n  \"strategy\": \"flat\"\n}"
    (render Core.Kway.Options.default);
  checks "multilevel, functional 1, chiplet"
    "{\n  \"runs\": 5,\n  \"seed\": 1,\n  \"replication\": {\n    \
     \"functional_threshold\": 1\n  },\n  \"objective\": \"chiplet\",\n  \
     \"strategy\": \"multilevel\"\n}"
    (render
       (Core.Kway.Options.make ~replication:(`Functional 1)
          ~objective:Fpga.Objective.chiplet
          ~strategy:(Core.Kway.Multilevel Core.Kway.Options.default_multilevel)
          ()))

(* The strategy is one of two strings; anything else is ill-typed. *)
let test_options_strategy () =
  let decode j =
    Experiments.Obs_report.options_of_json
      (J.Obj [ ("strategy", j) ])
  in
  let strategy j = Result.map (fun o -> o.Core.Kway.strategy) (decode j) in
  checkb "\"multilevel\" decodes to Multilevel" true
    (strategy (J.String "multilevel")
    = Ok (Core.Kway.Multilevel Core.Kway.Options.default_multilevel));
  checkb "\"flat\" decodes to Flat" true
    (strategy (J.String "flat") = Ok Core.Kway.Flat);
  List.iter
    (fun (what, j) ->
      match decode j with
      | Ok _ -> Alcotest.failf "%s accepted as a strategy" what
      | Error msg -> checks what "ill-typed field \"strategy\"" msg)
    [
      ("an object", J.Obj [ ("max_levels", J.Int 12) ]);
      ("an empty object", J.Obj []);
      ("another string", J.String "vcycle");
    ]

(* Random valid options: every settable field, over both strategies, both
   replication modes and every builtin objective. *)
let gen_options st =
  let int lo hi = lo + Random.State.int st (hi - lo + 1) in
  let replication =
    if Random.State.bool st then `None else `Functional (int 0 6)
  in
  let strategy =
    if Random.State.bool st then Core.Kway.Flat
    else Core.Kway.Multilevel Core.Kway.Options.default_multilevel
  in
  let objectives = Fpga.Objective.builtins in
  let objective = List.nth objectives (int 0 (List.length objectives - 1)) in
  let stop = Random.State.bool st in
  Core.Kway.Options.make ~runs:(int 1 20) ~seed:(int (-1000) 1_000_000)
    ~replication ~jobs:(int 1 8) ~should_stop:(fun () -> stop) ~objective
    ~strategy ()

let qcheck_options_codec_roundtrip =
  QCheck.Test.make ~name:"options codec roundtrips every serialised field"
    ~count:300
    (QCheck.make gen_options)
    (fun o ->
      (* Through the printed bytes, as the options cross the wire. *)
      let bytes =
        Obs.Json.to_string (Experiments.Obs_report.options_to_json o)
      in
      match
        Result.bind (Obs.Json.of_string bytes)
          Experiments.Obs_report.options_of_json
      with
      | Error e -> QCheck.Test.fail_reportf "decode failed: %s" e
      | Ok d ->
          let open Core.Kway in
          d.runs = o.runs && d.seed = o.seed && d.replication = o.replication
          && String.equal d.objective.Fpga.Objective.name
               o.objective.Fpga.Objective.name
          && d.strategy = o.strategy
          && d.jobs = Options.default.jobs
          && d.should_stop == Options.default.should_stop)

(* ------------------------------------------------------------------ *)
(* Protocol                                                           *)
(* ------------------------------------------------------------------ *)

let test_protocol_roundtrip () =
  let reqs =
    [
      Service.Protocol.Submit
        {
          name = "c17";
          format = Service.Protocol.Bench;
          netlist = "INPUT(a)\nOUTPUT(a)\n";
          options = Core.Kway.Options.make ~runs:2 ~seed:3 ();
          envelope = Service.Protocol.default_envelope;
        };
      Service.Protocol.Submit
        {
          name = "c17";
          format = Service.Protocol.Bench;
          netlist = "INPUT(a)\nOUTPUT(a)\n";
          options = Core.Kway.Options.make ~runs:2 ~seed:3 ();
          envelope =
            { Service.Protocol.tenant = "acme"; priority = 3; portfolio = true };
        };
      Service.Protocol.Submit_batch
        {
          items =
            [
              {
                Service.Protocol.b_name = "c17";
                b_format = Service.Protocol.Bench;
                b_netlist = "INPUT(a)\nOUTPUT(a)\n";
                b_options = Core.Kway.Options.make ~runs:2 ~seed:3 ();
              };
              {
                Service.Protocol.b_name = "c17b";
                b_format = Service.Protocol.Bench;
                b_netlist = "INPUT(b)\nOUTPUT(b)\n";
                b_options = Core.Kway.Options.make ~runs:1 ~seed:7 ();
              };
            ];
          envelope =
            {
              Service.Protocol.tenant = "batch";
              priority = -1;
              portfolio = false;
            };
        };
      Service.Protocol.Fleet_stats;
      Service.Protocol.Status 4;
      Service.Protocol.Result { job = 9; wait = true };
      Service.Protocol.Cancel 2;
      Service.Protocol.Stats;
      Service.Protocol.Shutdown;
    ]
  in
  List.iter
    (fun req ->
      match
        Service.Protocol.request_of_json (Service.Protocol.request_to_json req)
      with
      | Ok req' ->
          (* options contains a closure; compare via re-encoding. *)
          checkb "request roundtrip" true
            (Service.Protocol.request_to_json req'
            = Service.Protocol.request_to_json req)
      | Error (_, e) -> Alcotest.fail e)
    reqs

let test_protocol_bad_requests () =
  let bad_code expected json =
    match Service.Protocol.request_of_json json with
    | Ok _ -> Alcotest.fail "bad request accepted"
    | Error (code, _) -> checks "error code" expected code
  in
  let bad = bad_code Service.Protocol.code_bad_request in
  let v = ("v", J.Int Service.Protocol.protocol_version) in
  bad (J.Obj [ v; ("verb", J.String "frobnicate") ]);
  bad (J.Obj [ v; ("verb", J.String "status") ]);
  (* missing job *)
  bad (J.Obj [ v; ("verb", J.String "submit"); ("name", J.String "x") ]);
  (* Options the engine would reject fail at decode time. *)
  bad
    (J.Obj
       [
         v;
         ("verb", J.String "submit");
         ("name", J.String "x");
         ("format", J.String "bench");
         ("netlist", J.String "INPUT(a)\nOUTPUT(a)\n");
         ("options", J.Obj [ ("runs", J.Int 0) ]);
       ]);
  (* So is a negative replication threshold. *)
  bad
    (J.Obj
       [
         v;
         ("verb", J.String "submit");
         ("name", J.String "x");
         ("format", J.String "bench");
         ("netlist", J.String "INPUT(a)\nOUTPUT(a)\n");
         ( "options",
           J.Obj
             [ ("replication", J.Obj [ ("functional_threshold", J.Int (-1)) ]) ]
         );
       ]);
  (* A strategy object (the multilevel knobs before protocol v4) is a
     typed bad request, not silently read as the default V-cycle. *)
  bad
    (J.Obj
       [
         v;
         ("verb", J.String "submit");
         ("name", J.String "x");
         ("format", J.String "bench");
         ("netlist", J.String "INPUT(a)\nOUTPUT(a)\n");
         ( "options",
           J.Obj [ ("strategy", J.Obj [ ("coarsen_ratio", J.Float 0.9) ]) ] );
       ]);
  (* Unknown objective names are bad requests too. *)
  bad
    (J.Obj
       [
         v;
         ("verb", J.String "submit");
         ("name", J.String "x");
         ("format", J.String "bench");
         ("netlist", J.String "INPUT(a)\nOUTPUT(a)\n");
         ("options", J.Obj [ ("objective", J.String "frobnicate") ]);
       ]);
  (* The version gate fires before verb dispatch, with its own code. *)
  let unsupported = bad_code Service.Protocol.code_unsupported_version in
  unsupported J.Null;
  unsupported (J.Obj [ ("verb", J.String "stats") ]);
  unsupported (J.Obj [ ("v", J.Int 99); ("verb", J.String "stats") ]);
  (* A v1 client is refused outright — the gate is strict equality, not
     backward tolerance — so it can never see replies missing the v2
     [timings] field. *)
  unsupported (J.Obj [ ("v", J.Int 1); ("verb", J.String "stats") ]);
  (* So is a v3 client, whose options may carry the search-budget keys
     v4 dropped. *)
  unsupported (J.Obj [ ("v", J.Int 3); ("verb", J.String "stats") ]);
  unsupported (J.Obj [ ("v", J.String "2"); ("verb", J.String "stats") ])

(* ------------------------------------------------------------------ *)
(* End-to-end daemon tests                                            *)
(* ------------------------------------------------------------------ *)

let temp_socket () =
  let path = Filename.temp_file "fpgapart_test" ".sock" in
  Sys.remove path;
  path

(* Run a server in a background thread; give the test a connected-client
   view; shut everything down afterwards even on failure. *)
let with_server ?(config = fun c -> c) f =
  let path = temp_socket () in
  let cfg = config (Service.Server.default_config ~socket_path:path) in
  let ready = Mutex.create () and ready_cond = Condition.create () in
  let is_ready = ref false in
  let on_ready () =
    Mutex.lock ready;
    is_ready := true;
    Condition.broadcast ready_cond;
    Mutex.unlock ready
  in
  let server_result = ref (Ok ()) in
  let server =
    Thread.create (fun () -> server_result := Service.Server.run ~on_ready cfg) ()
  in
  Mutex.lock ready;
  while not !is_ready do
    Condition.wait ready_cond ready
  done;
  Mutex.unlock ready;
  let shutdown () =
    (match Service.Client.rpc ~socket:path Service.Protocol.Shutdown with
    | Ok _ | Error _ -> ());
    Thread.join server
  in
  Fun.protect ~finally:shutdown (fun () -> f path);
  match !server_result with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("server: " ^ e)

let rpc_ok path req =
  match Service.Client.rpc ~socket:path req with
  | Error e -> Alcotest.fail e
  | Ok reply -> (
      match Service.Client.ok_or_error reply with
      | Ok reply -> reply
      | Error (code, msg) -> Alcotest.failf "%s [%s]" msg code)

let rpc_err path req =
  match Service.Client.rpc ~socket:path req with
  | Error e -> Alcotest.fail e
  | Ok reply -> (
      match Service.Client.ok_or_error reply with
      | Ok _ -> Alcotest.fail "expected a protocol error"
      | Error (code, _) -> code)

let submit_req ?(runs = 2) ?(seed = 1)
    ?(envelope = Service.Protocol.default_envelope) name text =
  Service.Protocol.Submit
    {
      name;
      format = Service.Protocol.Bench;
      netlist = text;
      options = Core.Kway.Options.make ~runs ~seed ();
      envelope;
    }

let int_field name reply =
  match Option.bind (J.member name reply) J.to_int with
  | Some v -> v
  | None -> Alcotest.failf "reply lacks int field %S" name

let str_field name reply =
  match Option.bind (J.member name reply) J.to_str with
  | Some v -> v
  | None -> Alcotest.failf "reply lacks string field %S" name

let counter stats name =
  match
    Option.bind (J.member "obs" stats) (fun obs ->
        Option.bind (J.member "counters" obs) (J.member name))
  with
  | Some (J.Int n) -> n
  | _ -> 0

let test_server_cache_hit_on_permuted_resubmit () =
  with_server (fun path ->
      let text =
        Netlist.Bench_format.to_string (Netlist.Generator.c17 ())
      in
      (* First submission computes. *)
      let r1 = rpc_ok path (submit_req "c17" text) in
      checkb "first not cached" false
        (Option.value ~default:false
           (Option.bind (J.member "cached" r1) J.to_bool));
      let job1 = int_field "job" r1 in
      let r1 =
        rpc_ok path (Service.Protocol.Result { job = job1; wait = true })
      in
      let doc1 =
        match J.member "result" r1 with
        | Some d -> d
        | None -> Alcotest.fail "no result document"
      in
      (* Byte-permuted but semantically identical: served from cache,
         byte-identical document, engine not re-run. *)
      let r2 = rpc_ok path (submit_req "c17" (permute_bench text)) in
      checkb "second cached" true
        (Option.value ~default:false
           (Option.bind (J.member "cached" r2) J.to_bool));
      let doc2 =
        match J.member "result" r2 with
        | Some d -> d
        | None -> Alcotest.fail "no cached document"
      in
      checks "cached reply byte-identical" (J.to_string doc1) (J.to_string doc2);
      ignore str_field;
      let stats =
        match J.member "stats" (rpc_ok path Service.Protocol.Stats) with
        | Some s -> s
        | None -> Alcotest.fail "no stats"
      in
      checki "one cache hit" 1 (counter stats "service.cache_hit");
      checki "one cache miss" 1 (counter stats "service.cache_miss");
      (* A different seed is a different key: miss. *)
      let r3 = rpc_ok path (submit_req ~seed:2 "c17" text) in
      checkb "different options not cached" false
        (Option.value ~default:false
           (Option.bind (J.member "cached" r3) J.to_bool));
      ignore
        (rpc_ok path
           (Service.Protocol.Result { job = int_field "job" r3; wait = true })))

let astr_contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    if i + nn > nh then false
    else String.sub haystack i nn = needle || go (i + 1)
  in
  go 0

let qcheck_delta_codec_roundtrip =
  (* The wire format for deltas must carry every op faithfully: encode a
     random delta, decode it, and get structurally equal ops back. *)
  QCheck.Test.make ~name:"delta wire codec roundtrips" ~count:80
    QCheck.(small_int)
    (fun seed ->
      let rng = Netlist.Rng.create (seed + 31) in
      let c =
        Netlist.Generator.random ~rng ~num_inputs:4 ~num_gates:30 ~num_dff:3
          ~num_outputs:5 ()
      in
      let delta = Netlist.Delta.random ~seed ~frac:0.1 c in
      match
        Service.Protocol.delta_of_json (Service.Protocol.delta_to_json delta)
      with
      | Ok decoded -> decoded = delta
      | Error e -> QCheck.Test.fail_reportf "decode failed: %s" e)

let result_doc path job =
  let r = rpc_ok path (Service.Protocol.Result { job; wait = true }) in
  match J.member "result" r with
  | Some d -> J.to_string d
  | None -> Alcotest.fail "no result document"

let stats_counter path name =
  match J.member "stats" (rpc_ok path Service.Protocol.Stats) with
  | Some s -> counter s name
  | None -> Alcotest.fail "no stats"

(* The daemon differential: one long-lived daemon serves a stream of
   near-duplicate requests, and each reply carries, byte for byte, the
   result document a fresh daemon computes for that request alone. Per
   case the stream is a random netlist under a random multilevel run
   seed, then its node-permuted text (a cache hit), then the run seed
   plus one (a miss). A request is a hit exactly when the daemon has seen
   its circuit seed and run seed before. *)
let test_daemon_differential () =
  let request text run_seed =
    Service.Protocol.Submit
      {
        name = "near";
        format = Service.Protocol.Bench;
        netlist = text;
        options =
          Core.Kway.Options.make ~runs:1 ~seed:run_seed
            ~strategy:
              (Core.Kway.Multilevel Core.Kway.Options.default_multilevel)
            ();
        envelope = Service.Protocol.default_envelope;
      }
  in
  let serve path req =
    let r = rpc_ok path req in
    let cached =
      Option.value ~default:false (Option.bind (J.member "cached" r) J.to_bool)
    in
    match J.member "result" r with
    | Some d -> (cached, J.to_string d)
    | None -> (cached, result_doc path (int_field "job" r))
  in
  let seen = Hashtbl.create 16 in
  with_server (fun long_lived ->
      let property (seed, run_seed) =
        let text = Netlist.Bench_format.to_string (random_circuit seed) in
        List.for_all
          (fun (what, text, run_seed) ->
            let key = (seed, run_seed) in
            let cached, doc = serve long_lived (request text run_seed) in
            let fresh = ref "" in
            with_server (fun path ->
                fresh := snd (serve path (request text run_seed)));
            if cached <> Hashtbl.mem seen key then
              QCheck.Test.fail_reportf "%s: cached = %b" what cached;
            Hashtbl.replace seen key ();
            if doc <> !fresh then
              QCheck.Test.fail_reportf "%s: reply differs from a fresh daemon's"
                what;
            true)
          [
            ("base", text, run_seed);
            ("permuted", permute_bench text, run_seed);
            ("nudged", text, run_seed + 1);
          ]
      in
      QCheck.Test.check_exn
        (QCheck.Test.make ~name:"daemon differential" ~count:3
           QCheck.(pair (int_range 0 10_000) (int_range 1 100_000))
           property))

let qcheck_resubmit_noop_byte_identity =
  (* Satellite invariant: a resubmit carrying the empty delta replies the
     cached submit document byte-for-byte and runs no F-M at all — the
     service-level fm_applied_ops counter must not move. *)
  QCheck.Test.make ~name:"empty-delta resubmit is byte-identical, runs nothing"
    ~count:4
    QCheck.(int_range 0 1000)
    (fun seed ->
      let ok = ref false in
      with_server (fun path ->
          let rng = Netlist.Rng.create seed in
          let c =
            Netlist.Generator.random ~rng ~num_inputs:5 ~num_gates:40
              ~num_dff:4 ~num_outputs:6 ()
          in
          let text = Netlist.Bench_format.to_string c in
          let r1 = rpc_ok path (submit_req "base" text) in
          let job1 = int_field "job" r1 in
          let digest1 = str_field "digest" r1 in
          let doc1 = result_doc path job1 in
          let fm_before = stats_counter path "service.fm_applied_ops" in
          let resubmit base =
            rpc_ok path
              (Service.Protocol.Resubmit
                 { name = "noop"; base; delta = []; options = None })
          in
          let check_reply r =
            if
              not
                (Option.value ~default:false
                   (Option.bind (J.member "cached" r) J.to_bool))
            then Alcotest.fail "noop resubmit not served from cache";
            match J.member "result" r with
            | Some d -> checks "byte-identical document" doc1 (J.to_string d)
            | None -> Alcotest.fail "noop resubmit reply lacks result"
          in
          check_reply (resubmit (`Job job1));
          check_reply (resubmit (`Digest digest1));
          checki "no F-M ran" fm_before
            (stats_counter path "service.fm_applied_ops");
          checki "two noop resubmits" 2
            (stats_counter path "service.resubmit_noop");
          ok := true);
      !ok)

let test_server_resubmit_warm () =
  with_server (fun path ->
      let text = Netlist.Bench_format.to_string (Netlist.Generator.c17 ()) in
      let r1 = rpc_ok path (submit_req "base" text) in
      let job1 = int_field "job" r1 in
      ignore (result_doc path job1);
      (* A real edit against a live base warm-starts: no cold fallback. *)
      let delta =
        [ Netlist.Delta.Set_output { net = "16"; output = true } ]
      in
      let r2 =
        rpc_ok path
          (Service.Protocol.Resubmit
             { name = "eco"; base = `Job job1; delta; options = None })
      in
      checkb "warm, not cold fallback" false
        (Option.value ~default:false
           (Option.bind (J.member "cold_fallback" r2) J.to_bool));
      ignore (result_doc path (int_field "job" r2));
      checki "one warm resubmit" 1 (stats_counter path "service.resubmit_warm");
      checki "warm run did not fall back" 0
        (stats_counter path "service.resubmit_warm_failed");
      (* Same edit again: served from the lineage-key cache. *)
      let r3 =
        rpc_ok path
          (Service.Protocol.Resubmit
             { name = "eco"; base = `Job job1; delta; options = None })
      in
      checkb "warm result cached" true
        (Option.value ~default:false
           (Option.bind (J.member "cached" r3) J.to_bool));
      (* A broken delta is a typed bad_request naming the offender. *)
      match
        Service.Client.rpc ~socket:path
          (Service.Protocol.Resubmit
             {
               name = "bad";
               base = `Job job1;
               delta = [ Netlist.Delta.Remove_cell "10" ];
               options = None;
             })
      with
      | Error e -> Alcotest.fail e
      | Ok reply -> (
          match Service.Client.ok_or_error reply with
          | Ok _ -> Alcotest.fail "referenced removal accepted"
          | Error (code, msg) ->
              checks "bad request" Service.Protocol.code_bad_request code;
              checkb "names the broken pair" true
                (astr_contains msg "10" && astr_contains msg "22")))

let test_server_resubmit_objective_mismatch () =
  (* A warm lineage keeps one objective: a resubmit whose options name a
     different objective than the base's is a typed bad_request telling
     the caller to submit cold. *)
  with_server (fun path ->
      let text = Netlist.Bench_format.to_string (Netlist.Generator.c17 ()) in
      let r1 = rpc_ok path (submit_req "base" text) in
      let job1 = int_field "job" r1 in
      ignore (result_doc path job1);
      match
        Service.Client.rpc ~socket:path
          (Service.Protocol.Resubmit
             {
               name = "switch";
               base = `Job job1;
               delta = [ Netlist.Delta.Set_output { net = "16"; output = true } ];
               options =
                 Some
                   (Core.Kway.Options.make ~runs:2 ~seed:1
                      ~objective:Fpga.Objective.chiplet ());
             })
      with
      | Error e -> Alcotest.fail e
      | Ok reply -> (
          match Service.Client.ok_or_error reply with
          | Ok _ -> Alcotest.fail "objective switch on a warm lineage accepted"
          | Error (code, msg) ->
              checks "bad request" Service.Protocol.code_bad_request code;
              checkb "names both objectives" true
                (astr_contains msg "chiplet" && astr_contains msg "paper");
              (* The same options as the base pass the guard. *)
              let r2 =
                rpc_ok path
                  (Service.Protocol.Resubmit
                     {
                       name = "same";
                       base = `Job job1;
                       delta =
                         [
                           Netlist.Delta.Set_output
                             { net = "16"; output = true };
                         ];
                       options =
                         Some (Core.Kway.Options.make ~runs:2 ~seed:1 ());
                     })
              in
              ignore (result_doc path (int_field "job" r2))))

let test_server_resubmit_evicted_base_cold_fallback () =
  (* cache_cap 1: the second submission evicts the base's cached context,
     so a resubmit against it must flag cold_fallback and still run. *)
  with_server
    ~config:(fun c -> { c with Service.Server.cache_cap = 1 })
    (fun path ->
      let base = Netlist.Bench_format.to_string (Netlist.Generator.c17 ()) in
      let r1 = rpc_ok path (submit_req "base" base) in
      let job1 = int_field "job" r1 in
      ignore (result_doc path job1);
      let other =
        Netlist.Bench_format.to_string
          (Netlist.Generator.ripple_adder ~bits:4 ())
      in
      let r2 = rpc_ok path (submit_req "evictor" other) in
      ignore (result_doc path (int_field "job" r2));
      let r3 =
        rpc_ok path
          (Service.Protocol.Resubmit
             {
               name = "eco";
               base = `Job job1;
               delta = [ Netlist.Delta.Set_output { net = "16"; output = true } ];
               options = None;
             })
      in
      checkb "cold fallback flagged" true
        (Option.value ~default:false
           (Option.bind (J.member "cold_fallback" r3) J.to_bool));
      ignore (result_doc path (int_field "job" r3));
      checki "counted as cold fallback" 1
        (stats_counter path "service.resubmit_cold_fallback");
      checki "no warm resubmit" 0 (stats_counter path "service.resubmit_warm");
      (* An unknown base is a typed not_found. *)
      match
        Service.Client.rpc ~socket:path
          (Service.Protocol.Resubmit
             { name = "x"; base = `Job 9999; delta = []; options = None })
      with
      | Error e -> Alcotest.fail e
      | Ok reply -> (
          match Service.Client.ok_or_error reply with
          | Ok _ -> Alcotest.fail "unknown base accepted"
          | Error (code, _) ->
              checks "not found" Service.Protocol.code_not_found code))

let test_server_backpressure_and_cancel () =
  (* queue_cap 1: one job runs, one queues, the third is refused. *)
  with_server
    ~config:(fun c -> { c with Service.Server.queue_cap = 1 })
    (fun path ->
      let slow =
        Netlist.Bench_format.to_string
          (Netlist.Generator.multiplier ~bits:16 ())
      in
      let submit seed = rpc_ok path (submit_req ~runs:500 ~seed "slow" slow) in
      let j1 = int_field "job" (submit 1) in
      (* The worker must have taken j1 before j2 arrives, or j2 finds j1
         still queued and is refused in its place. *)
      Test_util.poll_until ~timeout:10. "job 1 running" (fun () ->
          String.equal Service.Protocol.state_running
            (str_field "state" (rpc_ok path (Service.Protocol.Status j1))));
      let j2 = int_field "job" (submit 2) in
      let code = rpc_err path (submit_req ~runs:500 ~seed:3 "slow" slow) in
      checks "typed overload error" Service.Protocol.code_overloaded code;
      (* Cancel both; the running one stops at the next engine poll. *)
      ignore (rpc_ok path (Service.Protocol.Cancel j1));
      ignore (rpc_ok path (Service.Protocol.Cancel j2));
      let wait j =
        rpc_err path (Service.Protocol.Result { job = j; wait = true })
      in
      checks "running job cancelled" Service.Protocol.code_cancelled (wait j1);
      checks "queued job cancelled" Service.Protocol.code_cancelled (wait j2);
      let stats =
        match J.member "stats" (rpc_ok path Service.Protocol.Stats) with
        | Some s -> s
        | None -> Alcotest.fail "no stats"
      in
      checki "rejections counted" 1 (counter stats "service.rejected");
      checki "cancellations counted" 2 (counter stats "service.cancelled"))

(* The daemon honours tenant weights: while a slow job holds the
   executor, tenants a (weight 3) and b (weight 1) queue four jobs each,
   and the executor dequeues them in weighted round-robin order. *)
let test_server_tenant_weights () =
  let buf = Buffer.create 4096 in
  with_server
    ~config:(fun c ->
      {
        c with
        Service.Server.tenant_weights = [ ("a", 3); ("b", 1) ];
        log = Obs.Log.to_buffer ~scrub:true buf;
      })
    (fun path ->
      let slow =
        Netlist.Bench_format.to_string
          (Netlist.Generator.multiplier ~bits:16 ())
      in
      let held =
        int_field "job" (rpc_ok path (submit_req ~runs:500 "slow" slow))
      in
      Test_util.poll_until ~timeout:10. "the slow job running" (fun () ->
          String.equal Service.Protocol.state_running
            (str_field "state" (rpc_ok path (Service.Protocol.Status held))));
      let text = Netlist.Bench_format.to_string (Netlist.Generator.c17 ()) in
      let queued =
        List.map
          (fun (tenant, seed) ->
            let envelope =
              { Service.Protocol.default_envelope with tenant }
            in
            let reply =
              rpc_ok path (submit_req ~runs:1 ~seed ~envelope tenant text)
            in
            (int_field "job" reply, tenant))
          [ ("a", 1); ("b", 2); ("a", 3); ("b", 4); ("a", 5); ("b", 6);
            ("a", 7); ("b", 8) ]
      in
      ignore (rpc_ok path (Service.Protocol.Cancel held));
      List.iter
        (fun (job, _) ->
          ignore (rpc_ok path (Service.Protocol.Result { job; wait = true })))
        queued;
      let dequeued =
        String.split_on_char '\n' (Buffer.contents buf)
        |> List.filter_map (fun line ->
               match J.of_string line with
               | Ok r when J.member "event" r = Some (J.String "job.dequeue") ->
                   Option.bind (J.member "job" r) J.to_int
                   |> Option.map (fun job -> List.assoc_opt job queued)
                   |> Option.join
               | _ -> None)
      in
      Alcotest.(check (list string))
        "3:1 dequeue order"
        [ "a"; "a"; "a"; "b"; "a"; "b"; "b"; "b" ]
        dequeued)

let test_server_timeout () =
  with_server
    ~config:(fun c -> { c with Service.Server.timeout = Some 0.05 })
    (fun path ->
      let slow =
        Netlist.Bench_format.to_string
          (Netlist.Generator.multiplier ~bits:16 ())
      in
      let r = rpc_ok path (submit_req ~runs:500 "slow" slow) in
      let code =
        rpc_err path
          (Service.Protocol.Result { job = int_field "job" r; wait = true })
      in
      checks "typed timeout error" Service.Protocol.code_timeout code)

let test_server_survives_garbage () =
  with_server (fun path ->
      (* Raw garbage on one connection... *)
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX path);
      let s = "\x00\x00\x00\x07garbage" in
      ignore (Unix.write fd (Bytes.of_string s) 0 (String.length s));
      (match Service.Codec.read_frame fd with
      | Ok reply -> (
          match Service.Client.ok_or_error reply with
          | Error (code, _) ->
              checks "typed bad_request" Service.Protocol.code_bad_request code
          | Ok _ -> Alcotest.fail "garbage accepted")
      | Error e -> Alcotest.fail (Service.Codec.read_error_to_string e));
      Unix.close fd;
      (* ...and an oversized length prefix on another... *)
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX path);
      ignore (Unix.write fd (Bytes.of_string "\x7f\xff\xff\xff") 0 4);
      (match Service.Codec.read_frame fd with
      | Ok reply -> (
          match Service.Client.ok_or_error reply with
          | Error (code, _) ->
              checks "oversized: typed bad_request"
                Service.Protocol.code_bad_request code
          | Ok _ -> Alcotest.fail "oversized frame accepted")
      | Error e -> Alcotest.fail (Service.Codec.read_error_to_string e));
      Unix.close fd;
      (* ...while the daemon keeps serving. *)
      let stats =
        match J.member "stats" (rpc_ok path Service.Protocol.Stats) with
        | Some s -> s
        | None -> Alcotest.fail "no stats"
      in
      checkb "bad requests counted" true
        (counter stats "service.bad_requests" >= 2))

(* A misspelled key and a retired one (a search-budget knob of an older
   protocol) in a submit's options, sent through the daemon as raw
   frames: each is a typed bad_request naming the key, not a run under
   the default options cached under their key; so is an options value
   that is no object. *)
let test_server_unknown_option_key () =
  with_server (fun path ->
      let submit options =
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_UNIX path);
        let request =
          J.Obj
            [
              ("v", J.Int Service.Protocol.protocol_version);
              ("verb", J.String "submit");
              ("name", J.String "x");
              ("format", J.String "bench");
              ("netlist", J.String "INPUT(a)\nOUTPUT(b)\nb = NOT(a)\n");
              ("options", options);
            ]
        in
        ignore (Service.Codec.write_frame fd request);
        let reply = Service.Codec.read_frame fd in
        Unix.close fd;
        match reply with
        | Ok reply -> Service.Client.ok_or_error reply
        | Error e -> Alcotest.fail (Service.Codec.read_error_to_string e)
      in
      List.iter
        (fun key ->
          match submit (J.Obj [ ("runs", J.Int 1); (key, J.Int 9) ]) with
          | Ok _ -> Alcotest.failf "option key %S accepted" key
          | Error (code, msg) ->
              checks (key ^ ": bad_request") Service.Protocol.code_bad_request
                code;
              let want = Printf.sprintf "unknown option key %S" key in
              let n = String.length want in
              let rec contains i =
                i + n <= String.length msg
                && (String.sub msg i n = want || contains (i + 1))
              in
              checkb (Printf.sprintf "%S names the key" msg) true (contains 0))
        [ "seeed"; "max_passes" ];
      (match submit (J.Int 5) with
      | Ok _ -> Alcotest.fail "options that are no object accepted"
      | Error (code, _) ->
          checks "no object: bad_request" Service.Protocol.code_bad_request
            code);
      (* The same options without the stray key are served. *)
      ignore
        (rpc_ok path
           (submit_req ~runs:1 "x" "INPUT(a)\nOUTPUT(b)\nb = NOT(a)\n")))

(* A job big enough to need a real multi-device split rolls its F-M
   telemetry up into the service-wide throughput metrics: applied ops and
   rescored cells as counters, and one moves/sec observation per job in
   the service.fm_moves_per_sec histogram (wall-derived, hence the
   _per_sec suffix that the determinism scrub masks). *)
let test_server_throughput_metrics () =
  with_server (fun path ->
      let text =
        Netlist.Bench_format.to_string
          (Netlist.Generator.multiplier ~bits:16 ())
      in
      let r = rpc_ok path (submit_req ~runs:1 "mult16" text) in
      ignore
        (rpc_ok path
           (Service.Protocol.Result { job = int_field "job" r; wait = true }));
      let stats =
        match J.member "stats" (rpc_ok path Service.Protocol.Stats) with
        | Some s -> s
        | None -> Alcotest.fail "no stats"
      in
      checkb "fm ops rolled up" true
        (counter stats "service.fm_applied_ops" > 0);
      checkb "rescored cells rolled up" true
        (counter stats "service.fm_rescored_cells" > 0);
      let hist_count name =
        match
          Option.bind (J.member "obs" stats) (fun obs ->
              Option.bind (J.member "histograms" obs) (fun hs ->
                  Option.bind (J.member name hs) (fun h ->
                      Option.bind (J.member "count" h) J.to_int)))
        with
        | Some n -> n
        | None -> 0
      in
      checki "one moves/sec observation per executed job" 1
        (hist_count "service.fm_moves_per_sec"))

let test_server_shutdown_refuses_new_work () =
  with_server (fun path ->
      (* Keep the executor busy so the drain cannot finish under us:
         connections stay open and the [stopping] flag is observable. *)
      let slow =
        Netlist.Bench_format.to_string
          (Netlist.Generator.multiplier ~bits:16 ())
      in
      let conn =
        match Service.Client.connect path with
        | Ok c -> c
        | Error e -> Alcotest.fail e
      in
      Fun.protect
        ~finally:(fun () -> Service.Client.close conn)
        (fun () ->
          let ask req =
            match Service.Client.request conn req with
            | Ok reply -> Service.Client.ok_or_error reply
            | Error e -> Alcotest.fail e
          in
          let j1 =
            match ask (submit_req ~runs:500 "slow" slow) with
            | Ok reply -> int_field "job" reply
            | Error (code, msg) -> Alcotest.failf "%s [%s]" msg code
          in
          ignore (rpc_ok path Service.Protocol.Shutdown);
          (* The daemon is draining: the still-open connection keeps
             answering, but new work is refused with a typed error. *)
          let text =
            Netlist.Bench_format.to_string (Netlist.Generator.c17 ())
          in
          (match ask (submit_req "c17" text) with
          | Ok _ -> Alcotest.fail "draining daemon accepted a submission"
          | Error (code, _) ->
              checks "draining refuses submissions"
                Service.Protocol.code_shutting_down code);
          (* Cancel lets the drain complete promptly. *)
          match ask (Service.Protocol.Cancel j1) with
          | Ok _ -> ()
          | Error (code, msg) -> Alcotest.failf "%s [%s]" msg code))

(* ------------------------------------------------------------------ *)
(* Observability: health, metrics, timings, lifecycle traces, logs    *)
(* ------------------------------------------------------------------ *)

let contains ~needle s =
  let n = String.length needle and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = needle || go (i + 1)) in
  go 0

let test_server_health () =
  with_server
    ~config:(fun c -> { c with Service.Server.queue_cap = 7 })
    (fun path ->
      let health reply =
        match J.member "health" reply with
        | Some h -> h
        | None -> Alcotest.fail "no health object"
      in
      let h = health (rpc_ok path Service.Protocol.Health) in
      checks "accepting" "accepting" (str_field "state" h);
      checki "protocol version" Service.Protocol.protocol_version
        (int_field "protocol_version" h);
      checki "stats schema version" Experiments.Obs_report.schema_version
        (int_field "stats_schema_version" h);
      checki "configured queue cap" 7 (int_field "queue_cap" h);
      checki "idle queue depth" 0 (int_field "queue_depth" h);
      checki "idle inflight" 0 (int_field "inflight" h);
      checki "no jobs yet" 0 (int_field "jobs_total" h);
      checkb "uptime present" true
        (match Option.bind (J.member "uptime_secs" h) J.to_float with
        | Some u -> u >= 0.0
        | None -> false);
      (* A completed job shows up in the registration count. *)
      let text = Netlist.Bench_format.to_string (Netlist.Generator.c17 ()) in
      let job = int_field "job" (rpc_ok path (submit_req "c17" text)) in
      ignore (rpc_ok path (Service.Protocol.Result { job; wait = true }));
      let h = health (rpc_ok path Service.Protocol.Health) in
      checki "job counted" 1 (int_field "jobs_total" h);
      checki "drained queue" 0 (int_field "queue_depth" h))

let test_server_metrics_exposition () =
  with_server (fun path ->
      let text = Netlist.Bench_format.to_string (Netlist.Generator.c17 ()) in
      let job = int_field "job" (rpc_ok path (submit_req "c17" text)) in
      ignore (rpc_ok path (Service.Protocol.Result { job; wait = true }));
      ignore (rpc_ok path (submit_req "c17" text));
      (* cache hit *)
      let reply = rpc_ok path Service.Protocol.Metrics in
      let doc =
        match Option.bind (J.member "metrics" reply) J.to_str with
        | Some text -> text
        | None -> Alcotest.fail "no metrics text"
      in
      checkb "EOF terminated" true
        (String.length doc >= 6
        && String.sub doc (String.length doc - 6) 6 = "# EOF\n");
      (* The continuously-maintained gauges. *)
      List.iter
        (fun family ->
          checkb (family ^ " gauge present") true
            (contains ~needle:("# TYPE fpgapart_" ^ family ^ " gauge") doc))
        [
          "queue_depth"; "queue_capacity"; "inflight_jobs"; "cache_entries";
          "cache_capacity"; "cache_hit_ratio"; "uptime_seconds";
          "gc_heap_words"; "gc_major_collections";
        ];
      checkb "idle queue depth sample" true
        (contains ~needle:"fpgapart_queue_depth 0\n" doc);
      checkb "hit ratio sample" true
        (contains ~needle:"fpgapart_cache_hit_ratio 0.5" doc);
      (* SLO latency histograms, one observation per executed job (the
         cache hit contributes to e2e only). *)
      List.iter
        (fun (family, expected) ->
          checkb (family ^ " histogram present") true
            (contains ~needle:("# TYPE fpgapart_" ^ family ^ " histogram") doc);
          checkb (family ^ " count") true
            (contains
               ~needle:(Printf.sprintf "fpgapart_%s_count %d" family expected)
               doc);
          checkb (family ^ " +Inf cumulative") true
            (contains
               ~needle:
                 (Printf.sprintf "fpgapart_%s_bucket{le=\"+Inf\"} %d" family
                    expected)
               doc))
        [
          ("service_queue_wait_seconds", 1);
          ("service_run_seconds", 1);
          ("service_e2e_seconds", 2);
        ];
      (* Counters from the Obs sink, renamed to the Prometheus charset. *)
      checkb "requests counter" true
        (contains ~needle:"fpgapart_service_requests_total" doc);
      checkb "cache hit counter" true
        (contains ~needle:"fpgapart_service_cache_hit_total 1" doc);
      (* The queue-wait blind spot stays closed: the native histogram is
         in the exposition too. *)
      checkb "queue wait native histogram" true
        (contains ~needle:"# TYPE fpgapart_service_queue_wait_ms histogram" doc))

let timings_of reply =
  match J.member "timings" reply with
  | Some t ->
      let f name = int_field name t in
      (f "decode_ms", f "queue_wait_ms", f "run_ms", f "encode_ms", f "total_ms")
  | None -> Alcotest.fail "reply lacks timings"

let test_server_reply_timings () =
  with_server (fun path ->
      let text = Netlist.Bench_format.to_string (Netlist.Generator.c17 ()) in
      let t0 = Unix.gettimeofday () in
      let job = int_field "job" (rpc_ok path (submit_req "c17" text)) in
      let reply = rpc_ok path (Service.Protocol.Result { job; wait = true }) in
      let client_elapsed_ms =
        int_of_float ((Unix.gettimeofday () -. t0) *. 1000.) + 1
      in
      let decode, queue_wait, run, encode, total = timings_of reply in
      List.iter
        (fun (name, v) -> checkb (name ^ " non-negative") true (v >= 0))
        [
          ("decode", decode); ("queue_wait", queue_wait); ("run", run);
          ("encode", encode); ("total", total);
        ];
      (* The parts sum to the total within scheduling/lock tolerance, and
         the total never exceeds what the client measured around the
         whole round trip. *)
      let parts = decode + queue_wait + run + encode in
      checkb "parts sum to total (tolerance 100ms)" true
        (abs (total - parts) <= 100);
      checkb "total within client-observed latency" true
        (total <= client_elapsed_ms + 100);
      (* A cache hit replies with fresh timings: no run, no queue. *)
      let hit = rpc_ok path (submit_req "c17" text) in
      let _, queue_wait_h, run_h, encode_h, total_h = timings_of hit in
      checki "cached queue wait" 0 queue_wait_h;
      checki "cached run" 0 run_h;
      checki "cached encode" 0 encode_h;
      checkb "cached total small" true (total_h <= 1000);
      (* The cached result document itself carries no timings — they live
         in the envelope, preserving byte-identity. *)
      (match J.member "result" hit with
      | Some doc -> checkb "no timings inside result doc" true
          (J.member "timings" doc = None)
      | None -> Alcotest.fail "no result");
      (* The queue-wait histogram saw the executed job. *)
      let stats =
        match J.member "stats" (rpc_ok path Service.Protocol.Stats) with
        | Some s -> s
        | None -> Alcotest.fail "no stats"
      in
      let hist_count name =
        match
          Option.bind (J.member "obs" stats) (fun obs ->
              Option.bind (J.member "histograms" obs) (fun hs ->
                  Option.bind (J.member name hs) (fun h ->
                      Option.bind (J.member "count" h) J.to_int)))
        with
        | Some n -> n
        | None -> 0
      in
      checki "queue wait observed once" 1 (hist_count "service.queue_wait_ms");
      checki "e2e observed for run and hit" 2 (hist_count "service.e2e_ms"))

let test_server_lifecycle_trace () =
  let trace_path = Filename.temp_file "fpgapart_trace" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove trace_path with Sys_error _ -> ())
    (fun () ->
      with_server
        ~config:(fun c ->
          { c with Service.Server.trace_path = Some trace_path })
        (fun path ->
          let text =
            Netlist.Bench_format.to_string (Netlist.Generator.c17 ())
          in
          let wait_result name seed =
            let job =
              int_field "job" (rpc_ok path (submit_req ~seed name text))
            in
            ignore
              (rpc_ok path (Service.Protocol.Result { job; wait = true }));
            job
          in
          let j1 = wait_result "c17" 1 in
          let j2 = wait_result "c17" 2 in
          checkb "two distinct jobs" true (j1 <> j2));
      (* The server wrote the trace during shutdown. Per job (= pid
         lane): the complete lifecycle span set, each span with a
         non-negative duration. *)
      let text = Test_util.read_file trace_path in
      List.iter
        (fun pid ->
          Alcotest.(check (list string))
            (Printf.sprintf "job %d lifecycle spans" pid)
            [ "canonicalise"; "decode"; "encode_reply"; "partition";
              "queue_wait" ]
            (List.sort compare (Test_util.lane_spans text pid)))
        [ 1; 2 ])

(* The end-to-end face of the log determinism contract: the same
   serialized workload, run twice (and under a different engine --jobs),
   emits byte-identical scrubbed info-level logs. *)
let test_server_scrubbed_logs_deterministic () =
  let capture jobs =
    let buf = Buffer.create 1024 in
    with_server
      ~config:(fun c ->
        {
          c with
          Service.Server.jobs;
          log = Obs.Log.to_buffer ~scrub:true buf;
        })
      (fun path ->
        let text =
          Netlist.Bench_format.to_string (Netlist.Generator.c17 ())
        in
        let job = int_field "job" (rpc_ok path (submit_req "c17" text)) in
        ignore (rpc_ok path (Service.Protocol.Result { job; wait = true }));
        ignore (rpc_ok path (submit_req "c17" text));
        ignore (rpc_ok path (Service.Protocol.Cancel job)));
    Buffer.contents buf
  in
  let a = capture 1 in
  let b = capture 1 in
  let c = capture 2 in
  checkb "log non-empty" true (String.length a > 0);
  checks "identical runs, identical logs" a b;
  checks "log independent of --jobs" a c;
  (* Sanity: the lifecycle events are actually in there, in order. *)
  let order =
    [ "job.enqueue"; "job.dequeue"; "job.done"; "job.cache_hit" ]
  in
  ignore
    (List.fold_left
       (fun from event ->
         let needle = Printf.sprintf "\"event\":\"%s\"" event in
         let rec find i =
           if i + String.length needle > String.length a then
             Alcotest.failf "log lacks %s after offset %d" event from
           else if String.sub a i (String.length needle) = needle then i
           else find (i + 1)
         in
         find from)
       0 order);
  (* Every lifecycle line names its job correlation id. *)
  checkb "correlation ids present" true (contains ~needle:"\"corr\":\"" a)

let () =
  Alcotest.run "service"
    [
      ( "codec",
        [
          Alcotest.test_case "roundtrip" `Quick test_codec_roundtrip;
          Alcotest.test_case "bad frames" `Quick test_codec_bad_frames;
          Alcotest.test_case "frame cap" `Quick test_codec_frame_cap;
        ] );
      ("lru", [ Alcotest.test_case "eviction and refresh" `Quick test_lru ]);
      ( "digest",
        [
          Alcotest.test_case "permutation invariant" `Quick
            test_digest_permutation_invariant;
          Alcotest.test_case "options fingerprint" `Quick test_digest_options;
          Alcotest.test_case "exact floats" `Quick test_digest_exact_floats;
          QCheck_alcotest.to_alcotest qcheck_canonical_reference;
          QCheck_alcotest.to_alcotest qcheck_applied_is_canonical;
          Alcotest.test_case "suite deltas apply canonically" `Quick
            test_suite_deltas_canonical;
          Alcotest.test_case "canonical allocation (s38584)" `Quick
            test_canonical_allocation;
        ] );
      ( "options codec",
        [
          Alcotest.test_case "pinned renderings" `Quick test_options_json_pinned;
          Alcotest.test_case "strategy" `Quick test_options_strategy;
          QCheck_alcotest.to_alcotest qcheck_options_codec_roundtrip;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "roundtrip" `Quick test_protocol_roundtrip;
          Alcotest.test_case "bad requests" `Quick test_protocol_bad_requests;
          QCheck_alcotest.to_alcotest qcheck_delta_codec_roundtrip;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "cache hit on permuted resubmit" `Quick
            test_server_cache_hit_on_permuted_resubmit;
          QCheck_alcotest.to_alcotest qcheck_resubmit_noop_byte_identity;
          Alcotest.test_case "near-duplicate requests match a fresh daemon"
            `Quick test_daemon_differential;
          Alcotest.test_case "resubmit warm start" `Quick
            test_server_resubmit_warm;
          Alcotest.test_case "resubmit rejects objective switch" `Quick
            test_server_resubmit_objective_mismatch;
          Alcotest.test_case "resubmit after eviction falls back cold" `Quick
            test_server_resubmit_evicted_base_cold_fallback;
          Alcotest.test_case "backpressure and cancel" `Quick
            test_server_backpressure_and_cancel;
          Alcotest.test_case "tenant weights" `Quick
            test_server_tenant_weights;
          Alcotest.test_case "timeout" `Quick test_server_timeout;
          Alcotest.test_case "survives garbage" `Quick
            test_server_survives_garbage;
          Alcotest.test_case "unknown option key" `Quick
            test_server_unknown_option_key;
          Alcotest.test_case "throughput metrics" `Quick
            test_server_throughput_metrics;
          Alcotest.test_case "shutdown refuses new work" `Quick
            test_server_shutdown_refuses_new_work;
        ] );
      ( "observability",
        [
          Alcotest.test_case "health probe" `Quick test_server_health;
          Alcotest.test_case "openmetrics exposition" `Quick
            test_server_metrics_exposition;
          Alcotest.test_case "reply timings" `Quick test_server_reply_timings;
          Alcotest.test_case "per-job lifecycle trace" `Quick
            test_server_lifecycle_trace;
          Alcotest.test_case "scrubbed logs byte-deterministic" `Quick
            test_server_scrubbed_logs_deterministic;
        ] );
    ]
