(* Tests for the observability layer: counters, spans, event recording,
   the JSON emitter, and the determinism contract the engine's telemetry
   promises (same seed -> byte-identical snapshots, since the sink reads
   no clock outside the trace). *)

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool
let checks = Alcotest.check Alcotest.string

(* ------------------------------------------------------------------ *)
(* Json                                                               *)
(* ------------------------------------------------------------------ *)

let test_json_rendering () =
  let j =
    Obs.Json.Obj
      [
        ("a", Obs.Json.Int 3);
        ("b", Obs.Json.List [ Obs.Json.Bool true; Obs.Json.Null ]);
        ("c", Obs.Json.Float 1.5);
        ("d", Obs.Json.String "x\"y\\z\n");
      ]
  in
  let s = Obs.Json.to_string j in
  checkb "escapes quote" true
    (String.length s > 0
    && (let sub = "\"x\\\"y\\\\z\\n\"" in
        let rec find i =
          i + String.length sub <= String.length s
          && (String.sub s i (String.length sub) = sub || find (i + 1))
        in
        find 0));
  checks "empty obj" "{}" (Obs.Json.to_string (Obs.Json.Obj []));
  checks "empty list" "[]" (Obs.Json.to_string (Obs.Json.List []));
  (* Floats always read back as floats; non-finite values become null. *)
  checks "integral float keeps a point" "2.0"
    (Obs.Json.to_string (Obs.Json.Float 2.0));
  checks "nan is null" "null" (Obs.Json.to_string (Obs.Json.Float Float.nan));
  checks "inf is null" "null"
    (Obs.Json.to_string (Obs.Json.Float Float.infinity))

let test_json_accessors () =
  let j = Obs.Json.Obj [ ("k", Obs.Json.Int 7); ("s", Obs.Json.String "v") ] in
  checkb "member hit" true
    (Obs.Json.member "k" j = Some (Obs.Json.Int 7));
  checkb "member miss" true (Obs.Json.member "zz" j = None);
  checkb "member on non-obj" true (Obs.Json.member "k" Obs.Json.Null = None);
  checkb "to_int" true (Obs.Json.to_int (Obs.Json.Int 4) = Some 4);
  checkb "to_float coerces int" true
    (Obs.Json.to_float (Obs.Json.Int 4) = Some 4.0);
  checkb "to_str" true (Obs.Json.to_str (Obs.Json.String "v") = Some "v")

(* ------------------------------------------------------------------ *)
(* Sink: counters, spans, events                                      *)
(* ------------------------------------------------------------------ *)

let test_noop_sink () =
  let t = Obs.noop in
  checkb "disabled" false (Obs.enabled t);
  Obs.incr t "x";
  Obs.event t "e" [];
  checki "span passes value through" 41 (Obs.span t "s" (fun () -> 41));
  checks "no span path" "" (Obs.current_span t);
  let s = Obs.snapshot t in
  checkb "empty snapshot" true
    (s.Obs.Snapshot.counters = [] && s.Obs.Snapshot.events = [])

let test_counters () =
  let t = Obs.create () in
  checkb "enabled" true (Obs.enabled t);
  Obs.incr t "b";
  Obs.incr t ~by:3 "a";
  Obs.incr t "b";
  let s = Obs.snapshot t in
  Alcotest.check
    Alcotest.(list (pair string int))
    "accumulated and sorted"
    [ ("a", 3); ("b", 2) ]
    s.Obs.Snapshot.counters

let test_span_nesting () =
  let t = Obs.create () in
  let inner_path = ref "" in
  let v =
    Obs.span t "outer" (fun () ->
        Obs.span t "inner" (fun () ->
            inner_path := Obs.current_span t;
            Obs.event t "probe" [ ("k", Obs.Json.Int 1) ];
            7))
  in
  checki "value through nested spans" 7 v;
  checks "nested path" "outer/inner" !inner_path;
  checks "stack popped" "" (Obs.current_span t);
  let s = Obs.snapshot t in
  (match s.Obs.Snapshot.events with
  | [ e ] ->
      checks "event name" "probe" e.Obs.Snapshot.name;
      checkb "span recorded on event" true
        (List.assoc_opt "span" e.Obs.Snapshot.fields
        = Some (Obs.Json.String "outer/inner"));
      checkb "payload preserved" true
        (List.assoc_opt "k" e.Obs.Snapshot.fields = Some (Obs.Json.Int 1))
  | l -> Alcotest.failf "expected 1 event, got %d" (List.length l));
  (* A span leaves nothing in the snapshot but the span path of the
     events it holds: the sink times nothing outside the trace. *)
  Obs.span t "outer" (fun () -> ());
  checkb "a span records nothing" true (Obs.snapshot t = s)

let test_span_exception_safety () =
  let t = Obs.create () in
  (try Obs.span t "boom" (fun () -> failwith "x") with Failure _ -> ());
  checks "stack popped after raise" "" (Obs.current_span t);
  let t = Obs.create ~trace:true () in
  (try Obs.span t "boom" (fun () -> failwith "x") with Failure _ -> ());
  checks "traced stack popped after raise" "" (Obs.current_span t);
  Alcotest.(check (list string))
    "trace span still recorded" [ "boom" ]
    (List.map (fun s -> s.Obs.Trace.span_name) (Obs.Trace.spans t))

let test_event_order () =
  let t = Obs.create () in
  for i = 0 to 4 do
    Obs.event t "e" [ ("i", Obs.Json.Int i) ]
  done;
  let s = Obs.snapshot t in
  let order =
    List.map
      (fun e ->
        match List.assoc "i" e.Obs.Snapshot.fields with
        | Obs.Json.Int i -> i
        | _ -> -1)
      s.Obs.Snapshot.events
  in
  Alcotest.check Alcotest.(list int) "recording order" [ 0; 1; 2; 3; 4 ] order

(* ------------------------------------------------------------------ *)
(* fork / merge_into (the parallel-telemetry primitives)              *)
(* ------------------------------------------------------------------ *)

let test_fork_merge_reproduces_sequential_stream () =
  (* Recording through forked children merged in fork order must be
     indistinguishable from recording everything into one sink — that is
     the contract Kway's parallel multi-start relies on. *)
  let record t tag =
    Obs.incr t "shared";
    Obs.incr t ~by:2 (tag ^ ".only");
    Obs.span t tag (fun () ->
        Obs.event t "probe" [ ("tag", Obs.Json.String tag) ])
  in
  let sequential = Obs.create () in
  Obs.span sequential "root" (fun () ->
      List.iter (record sequential) [ "a"; "b"; "c" ]);
  let parent = Obs.create () in
  Obs.span parent "root" (fun () ->
      let children =
        List.map
          (fun tag ->
            let child = Obs.fork parent in
            record child tag;
            child)
          [ "a"; "b"; "c" ]
      in
      List.iter (Obs.merge_into ~into:parent) children);
  let scrubbed t =
    Obs.Json.to_string
      (Obs.Snapshot.scrub_elapsed (Obs.Snapshot.to_json (Obs.snapshot t)))
  in
  checks "forked+merged equals sequential" (scrubbed sequential)
    (scrubbed parent);
  (* A forked child inherits the parent's span path at fork time. *)
  Obs.span parent "outer" (fun () ->
      let child = Obs.fork parent in
      checks "child inherits span path" "outer" (Obs.current_span child));
  (* Merging into a noop sink is a no-op, not an error. *)
  Obs.merge_into ~into:Obs.noop (Obs.fork Obs.noop)

(* ------------------------------------------------------------------ *)
(* Snapshot JSON and the elapsed-time scrub                           *)
(* ------------------------------------------------------------------ *)

let test_snapshot_json_shape () =
  let t = Obs.create () in
  Obs.incr t "c";
  Obs.span t "s" (fun () -> Obs.event t "e" [ ("x", Obs.Json.Int 1) ]);
  let j = Obs.Snapshot.to_json (Obs.snapshot t) in
  checkb "counters object" true
    (match Obs.Json.member "counters" j with
    | Some (Obs.Json.Obj [ ("c", Obs.Json.Int 1) ]) -> true
    | _ -> false);
  Alcotest.(check (list string))
    "keys, no timers" [ "counters"; "histograms"; "events" ]
    (match j with Obs.Json.Obj fields -> List.map fst fields | _ -> []);
  checkb "events list with event name first" true
    (match Obs.Json.member "events" j with
    | Some (Obs.Json.List [ Obs.Json.Obj (("event", Obs.Json.String "e") :: _) ])
      ->
        true
    | _ -> false)

let test_scrub_elapsed_is_minimal () =
  let j =
    Obs.Json.Obj
      [
        ("elapsed_secs", Obs.Json.Float 1.23);
        ("not_time", Obs.Json.Float 1.23);
        ("seconds", Obs.Json.Int 9);
        ( "nested",
          Obs.Json.List
            [ Obs.Json.Obj [ ("t_secs", Obs.Json.Float 0.5); ("n", Obs.Json.Int 1) ] ]
        );
        (* A wall-derived histogram: the whole value is masked, count
           included — its buckets depend on timing too. *)
        ( "service.fm_moves_per_sec",
          Obs.Json.Obj [ ("count", Obs.Json.Int 4); ("p50", Obs.Json.Float 9.0) ]
        );
        ("per_second", Obs.Json.Float 2.0);
        ("clb_util", Obs.Json.Float 0.75);
        ("utility", Obs.Json.Float 3.0);
      ]
  in
  let expect =
    Obs.Json.Obj
      [
        ("elapsed_secs", Obs.Json.Null);
        ("not_time", Obs.Json.Float 1.23);
        ("seconds", Obs.Json.Int 9);
        ( "nested",
          Obs.Json.List
            [ Obs.Json.Obj [ ("t_secs", Obs.Json.Null); ("n", Obs.Json.Int 1) ] ]
        );
        ("service.fm_moves_per_sec", Obs.Json.Null);
        ("per_second", Obs.Json.Float 2.0);
        ("clb_util", Obs.Json.Null);
        ("utility", Obs.Json.Float 3.0);
      ]
  in
  checks "only _secs/_per_sec/_util keys nulled, order kept"
    (Obs.Json.to_string expect)
    (Obs.Json.to_string (Obs.Snapshot.scrub_elapsed j));
  (* The stable view drops what the null mask nulls and the
     schema-revision keys, and folds the events into a length and the
     md5 of their key-sorted compact rendering. The hash was computed
     independently: md5 of Python's json.dumps(events, sort_keys=True,
     separators=(",", ":")) over the events without their _secs keys. *)
  let module J = Obs.Json in
  let doc =
    J.Obj
      [
        ("schema_version", J.Int 7);
        ("circuit", J.String "c17");
        ("seed", J.Int 1);
        ("options", J.Obj [ ("runs", J.Int 5) ]);
        ( "result",
          J.Obj
            [
              ("total_cost", J.Float 90.0);
              ("wall_secs", J.Float 0.3);
              ("resource_util", J.Obj [ ("clb_util", J.Float 0.5) ]);
            ] );
        ( "obs",
          J.Obj
            [
              ("counters", J.Obj [ ("kway.splits", J.Int 1) ]);
              ( "histograms",
                J.Obj
                  [
                    ("service.fm_moves_per_sec", J.Obj [ ("count", J.Int 1) ]);
                    ("fm.gain", J.Obj [ ("count", J.Int 3) ]);
                  ] );
              ( "events",
                J.List
                  [
                    J.Obj
                      [
                        ("event", J.String "kway.split");
                        ("step", J.Int 0);
                        ("device", J.String "XC3042");
                        ("cut", J.Int 7);
                      ];
                    J.Obj
                      [
                        ("event", J.String "fm.pass");
                        ("span", J.String "run0");
                        ("wall_secs", J.Float 0.2);
                        ("pass", J.Int 1);
                        ( "gains",
                          J.List [ J.Obj [ ("to", J.Int 2); ("from", J.Int 1) ] ]
                        );
                      ];
                  ] );
            ] );
      ]
  in
  let expect =
    J.Obj
      [
        ("circuit", J.String "c17");
        ("seed", J.Int 1);
        ("result", J.Obj [ ("total_cost", J.Float 90.0) ]);
        ( "obs",
          J.Obj
            [
              ("counters", J.Obj [ ("kway.splits", J.Int 1) ]);
              ("histograms", J.Obj [ ("fm.gain", J.Obj [ ("count", J.Int 3) ]) ]);
              ("events_md5", J.String "ced1cdf28ae9df01689a74c4a30f4076");
              ("events_len", J.Int 2);
            ] );
      ]
  in
  checks "stable drops volatile keys, hashes sorted events"
    (J.to_string expect)
    (J.to_string (Obs.Scrub.stable doc))

(* ------------------------------------------------------------------ *)
(* Histograms                                                         *)
(* ------------------------------------------------------------------ *)

let test_histogram_basics () =
  let t = Obs.create () in
  List.iter (Obs.observe t "h") [ 0; 1; 1; 2; 3; 5; -3; 100 ];
  let s = Obs.snapshot t in
  match s.Obs.Snapshot.histograms with
  | [ ("h", h) ] ->
      checki "count" 8 h.Obs.Snapshot.count;
      checki "sum" 109 h.Obs.Snapshot.sum;
      checki "bucket counts sum to count" h.Obs.Snapshot.count
        (List.fold_left (fun acc (_, n) -> acc + n) 0 h.Obs.Snapshot.buckets);
      checkb "buckets sorted by index" true
        (let idx = List.map fst h.Obs.Snapshot.buckets in
         List.sort compare idx = idx);
      (* 0 -> bucket 0; 1,1 -> bucket 1; 2,3 -> bucket 2; 5 -> bucket 3;
         100 -> bucket 7; -3 -> bucket -2. *)
      Alcotest.check
        Alcotest.(list (pair int int))
        "exact buckets"
        [ (-2, 1); (0, 1); (1, 2); (2, 2); (3, 1); (7, 1) ]
        h.Obs.Snapshot.buckets
  | l -> Alcotest.failf "expected 1 histogram, got %d" (List.length l)

let test_histogram_json_shape () =
  let t = Obs.create () in
  Obs.observe t "h" 5;
  Obs.observe t "h" 6;
  let j = Obs.Snapshot.to_json (Obs.snapshot t) in
  checkb "histograms object with labelled buckets" true
    (match Obs.Json.member "histograms" j with
    | Some
        (Obs.Json.Obj
          [
            ( "h",
              Obs.Json.Obj
                [
                  ("count", Obs.Json.Int 2);
                  ("sum", Obs.Json.Int 11);
                  ("buckets", Obs.Json.Obj [ ("[4,7]", Obs.Json.Int 2) ]);
                ] );
          ]) ->
        true
    | _ -> false);
  (* Noop sinks ignore observations. *)
  Obs.observe Obs.noop "h" 1;
  checkb "noop has no histograms" true
    ((Obs.snapshot Obs.noop).Obs.Snapshot.histograms = [])

let test_bucket_soundness =
  (* Totality and disjointness of the signed log2 bucketing: every int is
     inside the bounds of its own bucket and outside every neighbour's. *)
  QCheck.Test.make ~name:"every observation lands in exactly one bucket"
    ~count:2000
    QCheck.(
      oneof
        [
          int;
          int_range (-1000) 1000;
          oneofl [ 0; 1; -1; max_int; min_int; max_int - 1; min_int + 1 ];
        ])
    (fun v ->
      let b = Obs.bucket_of v in
      let lo, hi = Obs.bucket_bounds b in
      if not (lo <= v && v <= hi) then
        QCheck.Test.fail_reportf "%d outside its bucket %d = [%d,%d]" v b lo hi;
      List.iter
        (fun db ->
          let b' = b + db in
          (* Disjointness holds across bucket_of's image; indices beyond
             it clamp to the extreme buckets, so skip them. *)
          if b' >= -63 && b' <= 62 then begin
            let lo', hi' = Obs.bucket_bounds b' in
            if lo' <= v && v <= hi' then
              QCheck.Test.fail_reportf "%d also inside bucket %d = [%d,%d]" v
                b' lo' hi'
          end)
        [ -2; -1; 1; 2 ];
      true)

let test_histogram_fork_merge =
  (* Merging forked sinks sums counts, sums and per-bucket tallies exactly
     — the histogram half of the parallel-telemetry contract. *)
  QCheck.Test.make ~name:"merge_into sums histogram buckets exactly" ~count:100
    QCheck.(pair (list small_signed_int) (list (list small_signed_int)))
    (fun (parent_obs, children_obs) ->
      let direct = Obs.create () in
      List.iter (Obs.observe direct "h") parent_obs;
      List.iter (List.iter (Obs.observe direct "h")) children_obs;
      let parent = Obs.create () in
      List.iter (Obs.observe parent "h") parent_obs;
      let children =
        List.map
          (fun obs ->
            let c = Obs.fork parent in
            List.iter (Obs.observe c "h") obs;
            c)
          children_obs
      in
      List.iter (Obs.merge_into ~into:parent) children;
      (Obs.snapshot parent).Obs.Snapshot.histograms
      = (Obs.snapshot direct).Obs.Snapshot.histograms)

(* ------------------------------------------------------------------ *)
(* Tracing                                                            *)
(* ------------------------------------------------------------------ *)

let test_trace_spans () =
  let t = Obs.create ~trace:true () in
  checkb "tracing on" true (Obs.Trace.tracing t);
  checkb "noop not tracing" false (Obs.Trace.tracing Obs.noop);
  checkb "plain sink not tracing" false (Obs.Trace.tracing (Obs.create ()));
  Obs.span t "a" (fun () ->
      let child = Obs.fork ~pid:3 ~track:2 t in
      Obs.span child "b" (fun () -> Obs.span child "c" ignore);
      Obs.merge_into ~into:t child);
  let spans = Obs.Trace.spans t in
  checki "three spans" 3 (List.length spans);
  let find name =
    List.find (fun s -> s.Obs.Trace.span_name = name) spans
  in
  let a = find "a" and b = find "a/b" and c = find "a/b/c" in
  checki "parent pid defaults to 0" 0 a.Obs.Trace.span_pid;
  checki "parent tid defaults to 0" 0 a.Obs.Trace.span_tid;
  checki "forked pid" 3 b.Obs.Trace.span_pid;
  checki "forked tid" 2 b.Obs.Trace.span_tid;
  checki "nested span keeps lane" 3 c.Obs.Trace.span_pid;
  List.iter
    (fun s ->
      checkb
        (s.Obs.Trace.span_name ^ " well-formed")
        true
        (s.Obs.Trace.begin_secs >= 0.
        && s.Obs.Trace.end_secs >= s.Obs.Trace.begin_secs
        && s.Obs.Trace.gc.Obs.Trace.minor_collections >= 0))
    spans;
  (* Sorted by begin time, enclosing span first on ties. *)
  checkb "sorted by begin" true
    (let rec mono = function
       | x :: (y :: _ as rest) ->
           x.Obs.Trace.begin_secs <= y.Obs.Trace.begin_secs && mono rest
       | _ -> true
     in
     mono spans);
  checks "enclosing first" "a" (List.hd spans).Obs.Trace.span_name;
  (* The trace document has the Chrome trace-event shape; the stats
     document must not contain it. *)
  let trace_doc = Obs.Json.to_string (Obs.Trace.to_json t) in
  let contains hay needle =
    let n = String.length needle in
    let rec find i =
      i + n <= String.length hay
      && (String.sub hay i n = needle || find (i + 1))
    in
    find 0
  in
  checkb "traceEvents present" true (contains trace_doc "\"traceEvents\"");
  checkb "complete events" true (contains trace_doc "\"ph\": \"X\"");
  checkb "thread metadata" true (contains trace_doc "thread_name");
  let stats_doc = Obs.Json.to_string (Obs.Snapshot.to_json (Obs.snapshot t)) in
  checkb "trace absent from stats" false (contains stats_doc "traceEvents");
  checkb "no wall timestamps in stats" false (contains stats_doc "begin_secs")

let test_trace_off_records_nothing () =
  let t = Obs.create () in
  Obs.span t "a" ignore;
  checki "no spans without trace:true" 0 (List.length (Obs.Trace.spans t));
  checki "noop has no spans" 0 (List.length (Obs.Trace.spans Obs.noop))

(* ------------------------------------------------------------------ *)
(* Determinism regression on the real engine                          *)
(* ------------------------------------------------------------------ *)

let test_kway_snapshot_deterministic () =
  (* Two same-seed partition calls must serialise byte-identically, with
     no scrub: the sink reads no clock, so nothing in the snapshot is
     volatile. The multiplier needs several devices, so the telemetry
     exercises splits, device attempts and F-M passes. *)
  let h =
    Techmap.Mapper.to_hypergraph
      (Techmap.Mapper.map (Netlist.Generator.multiplier ~bits:16 ()))
  in
  let options = Core.Kway.Options.make ~runs:2 ~fm_attempts:2 () in
  let shot () =
    let obs = Obs.create () in
    (match Core.Kway.partition ~obs ~options ~library:Fpga.Library.xc3000 h with
    | Ok _ -> ()
    | Error e -> Alcotest.fail e);
    Obs.snapshot obs
  in
  let snap_a = shot () in
  let raw = Obs.Snapshot.to_json snap_a in
  checks "byte-identical without a scrub" (Obs.Json.to_string raw)
    (Obs.Json.to_string (Obs.Snapshot.to_json (shot ())));
  let names =
    List.sort_uniq compare
      (List.map (fun e -> e.Obs.Snapshot.name) snap_a.Obs.Snapshot.events)
  in
  checkb "has fm.pass events" true (List.mem "fm.pass" names);
  checkb "has device-window attempts" true (List.mem "kway.device_attempt" names);
  checkb "has split events" true (List.mem "kway.split" names);
  checks "no volatile key for the scrub to mask" (Obs.Json.to_string raw)
    (Obs.Json.to_string (Obs.Snapshot.scrub_elapsed raw))

(* ------------------------------------------------------------------ *)
(* Json parser (the service protocol's only reader)                   *)
(* ------------------------------------------------------------------ *)

let test_json_parse_basics () =
  let module J = Obs.Json in
  let ok text expected =
    match J.of_string text with
    | Ok v -> checkb (Printf.sprintf "parse %S" text) true (v = expected)
    | Error e -> Alcotest.failf "parse %S: %s" text e
  in
  ok "null" J.Null;
  ok "true" (J.Bool true);
  ok "  false " (J.Bool false);
  ok "42" (J.Int 42);
  ok "-7" (J.Int (-7));
  ok "1.5" (J.Float 1.5);
  ok "2e3" (J.Float 2000.);
  ok {|"hi"|} (J.String "hi");
  ok {|"a\nb\t\"c\"\\"|} (J.String "a\nb\t\"c\"\\");
  ok {|"Aé"|} (J.String "A\xc3\xa9");
  (* Surrogate pair: U+1F600. *)
  ok {|"😀"|} (J.String "\xf0\x9f\x98\x80");
  ok "[1, 2, 3]" (J.List [ J.Int 1; J.Int 2; J.Int 3 ]);
  ok "{}" (J.Obj []);
  (* Field order is preserved, not sorted. *)
  ok {|{"b": 1, "a": 2}|} (J.Obj [ ("b", J.Int 1); ("a", J.Int 2) ])

let test_json_parse_errors () =
  let module J = Obs.Json in
  let bad text =
    checkb (Printf.sprintf "reject %S" text) true
      (Result.is_error (J.of_string text))
  in
  bad "";
  bad "{";
  bad "[1, 2";
  bad "{\"a\": }";
  bad "tru";
  bad "\"unterminated";
  bad "1 2";
  (* trailing garbage *)
  bad "{\"a\": 1,}";
  (* trailing comma *)
  bad "nan";
  (* Errors carry a byte offset. *)
  match J.of_string "[1, x]" with
  | Ok _ -> Alcotest.fail "expected error"
  | Error msg ->
      let contains_offset =
        let n = String.length msg and p = "offset" in
        let pl = String.length p in
        let rec scan i =
          i + pl <= n && (String.sub msg i pl = p || scan (i + 1))
        in
        scan 0
      in
      checkb "offset in message" true contains_offset

let test_json_roundtrip () =
  let module J = Obs.Json in
  let docs =
    [
      J.Null;
      J.Obj
        [
          ("counters", J.Obj [ ("a.b", J.Int 3); ("c", J.Int 0) ]);
          ("list", J.List [ J.Bool true; J.Null; J.Float 0.25 ]);
          ("s", J.String "sp\xc3\xa9cial \"quoted\" \n text");
          ("neg", J.Int (-12345));
        ];
    ]
  in
  List.iter
    (fun doc ->
      match J.of_string (J.to_string doc) with
      | Ok doc' -> checkb "of_string (to_string d) = d" true (doc = doc')
      | Error e -> Alcotest.fail e)
    docs

let qcheck_json_roundtrip =
  let module J = Obs.Json in
  let leaf =
    QCheck.Gen.oneof
      [
        QCheck.Gen.return J.Null;
        QCheck.Gen.map (fun b -> J.Bool b) QCheck.Gen.bool;
        QCheck.Gen.map (fun i -> J.Int i) QCheck.Gen.small_signed_int;
        QCheck.Gen.map
          (fun f -> J.Float (Float.of_int (int_of_float (f *. 16.)) /. 16.))
          (QCheck.Gen.float_bound_inclusive 64.);
        QCheck.Gen.map (fun s -> J.String s) QCheck.Gen.string_printable;
      ]
  in
  let value =
    QCheck.Gen.sized (fun n ->
        QCheck.Gen.fix
          (fun self n ->
            if n <= 0 then leaf
            else
              QCheck.Gen.oneof
                [
                  leaf;
                  QCheck.Gen.map
                    (fun l -> J.List l)
                    (QCheck.Gen.list_size (QCheck.Gen.int_bound 4)
                       (self (n / 2)));
                  QCheck.Gen.map
                    (fun kvs ->
                      (* Duplicate keys break roundtripping by design;
                         index the keys to keep them distinct. *)
                      J.Obj
                        (List.mapi
                           (fun i (k, v) ->
                             (Printf.sprintf "%s_%d" k i, v))
                           kvs))
                    (QCheck.Gen.list_size (QCheck.Gen.int_bound 4)
                       (QCheck.Gen.pair QCheck.Gen.string_printable
                          (self (n / 2))));
                ])
          (min n 6))
  in
  QCheck.Test.make ~name:"json parse/print roundtrip" ~count:200
    (QCheck.make value) (fun doc ->
      match J.of_string (J.to_string doc) with
      | Ok doc' -> doc = doc'
      | Error e -> QCheck.Test.fail_reportf "no roundtrip: %s" e)

(* ------------------------------------------------------------------ *)
(* Structured logging                                                 *)
(* ------------------------------------------------------------------ *)

let test_log_levels_and_shape () =
  let module J = Obs.Json in
  let buf = Buffer.create 256 in
  let log = Obs.Log.to_buffer ~level:Obs.Log.Info buf in
  Obs.Log.debug log "below.threshold" [];
  Obs.Log.info log "job.enqueue" [ ("job", J.Int 1) ];
  Obs.Log.warn log "job.rejected" [ ("queue_depth", J.Int 3) ];
  let lines =
    String.split_on_char '\n' (Buffer.contents buf)
    |> List.filter (fun l -> l <> "")
  in
  checki "debug filtered below info" 2 (List.length lines);
  List.iter
    (fun line ->
      match J.of_string line with
      | Error e -> Alcotest.fail ("unparseable log line: " ^ e)
      | Ok j ->
          checkb "has ts_secs" true (J.member "ts_secs" j <> None);
          checkb "has level" true (J.member "level" j <> None);
          checkb "has event" true (J.member "event" j <> None))
    lines;
  (match J.of_string (List.nth lines 0) with
  | Ok j ->
      checkb "event field" true
        (J.member "event" j = Some (J.String "job.enqueue"));
      checkb "level field" true
        (J.member "level" j = Some (J.String "info"));
      checkb "payload field" true (J.member "job" j = Some (J.Int 1))
  | Error e -> Alcotest.fail e);
  (* Levels roundtrip through their wire names; "warning" is accepted. *)
  List.iter
    (fun l ->
      checkb "level name roundtrip" true
        (Obs.Log.level_of_string (Obs.Log.level_to_string l) = Some l))
    [ Obs.Log.Debug; Obs.Log.Info; Obs.Log.Warn; Obs.Log.Error ];
  checkb "warning alias" true
    (Obs.Log.level_of_string "WARNING" = Some Obs.Log.Warn);
  checkb "unknown level" true (Obs.Log.level_of_string "loud" = None)

let test_log_scrub_masks_volatile_fields () =
  let module J = Obs.Json in
  let buf = Buffer.create 256 in
  let log = Obs.Log.to_buffer ~scrub:true buf in
  Obs.Log.info log "job.done"
    [
      ("job", J.Int 7);
      ("run_ms", J.Int 1234);
      ("nested", J.Obj [ ("wait_secs", J.Float 0.5); ("state", J.String "done") ]);
    ];
  (match J.of_string (String.trim (Buffer.contents buf)) with
  | Error e -> Alcotest.fail e
  | Ok j ->
      checkb "ts_secs nulled" true (J.member "ts_secs" j = Some J.Null);
      checkb "run_ms nulled" true (J.member "run_ms" j = Some J.Null);
      checkb "stable field kept" true (J.member "job" j = Some (J.Int 7));
      (match J.member "nested" j with
      | Some nested ->
          checkb "nested _secs nulled" true
            (J.member "wait_secs" nested = Some J.Null);
          checkb "nested stable kept" true
            (J.member "state" nested = Some (J.String "done"))
      | None -> Alcotest.fail "nested object dropped"));
  (* The mask is exactly the suffix contract — nothing else — and only
     the log mask covers _ms: stats documents keep integer latencies. *)
  let fields =
    J.Obj
      [
        ("a_ms", J.Int 1);
        ("b_secs", J.Float 2.0);
        ("c_per_sec", J.Int 3);
        ("d_util", J.Float 0.9);
        ("milliseconds", J.Int 4);
        ("ms", J.Int 5);
      ]
  in
  let masked mask =
    match Obs.Scrub.null_mask mask fields with
    | J.Obj f -> f
    | _ -> Alcotest.fail "mask changed the document shape"
  in
  let log = masked Obs.Scrub.Log and stats = masked Obs.Scrub.Stats in
  checkb "suffix keys nulled" true
    (List.for_all
       (fun k -> List.assoc k log = J.Null)
       [ "a_ms"; "b_secs"; "c_per_sec"; "d_util" ]);
  checkb "non-suffix keys kept" true
    (List.assoc "milliseconds" log = J.Int 4 && List.assoc "ms" log = J.Int 5);
  checkb "stats mask keeps _ms" true (List.assoc "a_ms" stats = J.Int 1);
  checkb "stats mask nulls the rest" true
    (List.for_all
       (fun k -> List.assoc k stats = J.Null)
       [ "b_secs"; "c_per_sec"; "d_util" ])

(* The log determinism contract, at the logger: two scrubbed
   loggers fed the same records emit byte-identical streams, whatever
   wall-clock values the volatile fields carried. *)
let qcheck_scrubbed_log_deterministic =
  let module J = Obs.Json in
  let field =
    QCheck.Gen.oneof
      [
        QCheck.Gen.map
          (fun (k, v) -> ("f_" ^ k, J.Int v))
          (QCheck.Gen.pair QCheck.Gen.string_printable QCheck.Gen.small_signed_int);
        QCheck.Gen.map (fun v -> ("dur_ms", J.Int v)) QCheck.Gen.small_nat;
        QCheck.Gen.map
          (fun v -> ("t_secs", J.Float v))
          (QCheck.Gen.float_bound_inclusive 100.);
      ]
  in
  let record =
    QCheck.Gen.pair QCheck.Gen.string_printable
      (QCheck.Gen.list_size (QCheck.Gen.int_bound 5) field)
  in
  let records = QCheck.Gen.list_size (QCheck.Gen.int_bound 10) record in
  QCheck.Test.make ~name:"scrubbed log streams are byte-deterministic"
    ~count:100 (QCheck.make records) (fun records ->
      let emit jitter =
        let buf = Buffer.create 256 in
        let log = Obs.Log.to_buffer ~scrub:true buf in
        List.iter
          (fun (event, fields) ->
            (* A second "run" observes different wall-clock latencies;
               scrub must erase the difference. *)
            let fields =
              List.map
                (fun (k, v) ->
                  match v with
                  | J.Int n when k = "dur_ms" -> (k, J.Int (n + jitter))
                  | v -> (k, v))
                fields
            in
            Obs.Log.info log event fields)
          records;
        Buffer.contents buf
      in
      String.equal (emit 0) (emit 17))

(* ------------------------------------------------------------------ *)
(* OpenMetrics export                                                 *)
(* ------------------------------------------------------------------ *)

let contains ~needle s =
  let n = String.length needle and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = needle || go (i + 1)) in
  go 0

let test_slo_cumulativity () =
  let module ME = Obs.Metrics_export in
  let slo = ME.Slo.create ~buckets_ms:[ 10; 100; 1000 ] () in
  List.iter (ME.Slo.observe slo) [ 0; 5; 10; 50; 500; 5000 ];
  checki "count" 6 (ME.Slo.count slo);
  checki "sum" 5565 (ME.Slo.sum_ms slo);
  (match ME.Slo.buckets slo with
  | [ (10, c10); (100, c100); (1000, c1000) ] ->
      checki "le=10" 3 c10;
      (* 0, 5, 10 *)
      checki "le=100" 4 c100;
      checki "le=1000" 5 c1000
  | bs -> Alcotest.failf "unexpected bucket shape (%d)" (List.length bs));
  (* Cumulative counts never decrease and never exceed the total. *)
  let counts = List.map snd (ME.Slo.buckets slo) in
  checkb "monotone" true
    (List.for_all2 ( <= )
       (List.filteri (fun i _ -> i < List.length counts - 1) counts)
       (List.tl counts));
  checkb "below +Inf" true
    (List.for_all (fun c -> c <= ME.Slo.count slo) counts);
  (* Bounds are sorted and deduplicated at creation. *)
  let slo2 = ME.Slo.create ~buckets_ms:[ 100; 10; 100 ] () in
  checkb "sorted unique bounds" true
    (List.map fst (ME.Slo.buckets slo2) = [ 10; 100 ])

let test_openmetrics_rendering () =
  let module ME = Obs.Metrics_export in
  let t = Obs.create () in
  Obs.incr t ~by:3 "service.requests";
  Obs.observe t "service.queue_wait_ms" 7;
  Obs.observe t "service.queue_wait_ms" 120;
  let slo = ME.Slo.create ~buckets_ms:[ 10; 1000 ] () in
  ME.Slo.observe slo 7;
  ME.Slo.observe slo 120;
  let gauges =
    [
      {
        ME.g_name = "queue_depth";
        g_help = "Jobs queued\nand \\waiting.";
        g_value = 4.0;
        g_labels = [];
      };
      {
        ME.g_name = "cache_hit_ratio";
        g_help = "ratio";
        g_value = 0.25;
        g_labels = [];
      };
      (* Two samples of one labeled family: one HELP/TYPE header, two
         sample lines, label values escaped. *)
      {
        ME.g_name = "fleet_worker_up";
        g_help = "Per-worker liveness.";
        g_value = 1.0;
        g_labels = [ ("worker", "0") ];
      };
      {
        ME.g_name = "fleet_worker_up";
        g_help = "Per-worker liveness.";
        g_value = 0.0;
        g_labels = [ ("worker", "a\"b") ];
      };
    ]
  in
  let doc =
    ME.render ~gauges
      ~slos:[ ("service_e2e_seconds", "End to end.", slo) ]
      (Obs.snapshot t)
  in
  checkb "ends with EOF" true
    (String.length doc >= 6 && String.sub doc (String.length doc - 6) 6 = "# EOF\n");
  (* OpenMetrics: the TYPE line names the family, samples add _total. *)
  checkb "counter family" true
    (contains ~needle:"# TYPE fpgapart_service_requests counter" doc);
  checkb "counter sample" true
    (contains ~needle:"fpgapart_service_requests_total 3" doc);
  checkb "gauge family" true
    (contains ~needle:"# TYPE fpgapart_queue_depth gauge" doc);
  checkb "integral gauge has no point" true
    (contains ~needle:"fpgapart_queue_depth 4\n" doc);
  checkb "fractional gauge" true
    (contains ~needle:"fpgapart_cache_hit_ratio 0.25" doc);
  (* Labeled gauges: one header per family, labels on the samples. *)
  checkb "labeled gauge family" true
    (contains ~needle:"# TYPE fpgapart_fleet_worker_up gauge" doc);
  checkb "labeled gauge header appears once" true
    (let needle = "# TYPE fpgapart_fleet_worker_up gauge" in
     let rec count from acc =
       match String.index_from_opt doc from '#' with
       | None -> acc
       | Some i ->
           let hit =
             i + String.length needle <= String.length doc
             && String.sub doc i (String.length needle) = needle
           in
           count (i + 1) (if hit then acc + 1 else acc)
     in
     count 0 0 = 1);
  checkb "labeled gauge sample" true
    (contains ~needle:"fpgapart_fleet_worker_up{worker=\"0\"} 1\n" doc);
  checkb "label value escaped" true
    (contains ~needle:"fpgapart_fleet_worker_up{worker=\"a\\\"b\"} 0\n" doc);
  (* HELP newlines and backslashes are escaped per the exposition
     format. *)
  checkb "help escaped" true
    (contains ~needle:"Jobs queued\\nand \\\\waiting." doc);
  (* SLO histogram: ms recorded, seconds exported, cumulative with +Inf
     and sum/count. *)
  checkb "slo bucket le=0.01" true
    (contains ~needle:"fpgapart_service_e2e_seconds_bucket{le=\"0.01\"} 1" doc);
  checkb "slo bucket le=1" true
    (contains ~needle:"fpgapart_service_e2e_seconds_bucket{le=\"1\"} 2" doc);
  checkb "slo +Inf" true
    (contains ~needle:"fpgapart_service_e2e_seconds_bucket{le=\"+Inf\"} 2" doc);
  checkb "slo count" true
    (contains ~needle:"fpgapart_service_e2e_seconds_count 2" doc);
  checkb "slo sum in seconds" true
    (contains ~needle:"fpgapart_service_e2e_seconds_sum 0.127" doc);
  (* The native signed-log2 histogram renders as a histogram family with
     cumulative buckets. *)
  checkb "native histogram family" true
    (contains ~needle:"# TYPE fpgapart_service_queue_wait_ms histogram" doc);
  checkb "native histogram count" true
    (contains ~needle:"fpgapart_service_queue_wait_ms_count 2" doc);
  (* Name sanitisation: Obs keys use dots, families must not. *)
  checkb "no dotted family names" false
    (contains ~needle:"fpgapart_service.requests" doc);
  checks "sanitize punctuation" "service_queue_wait_ms"
    (ME.sanitize "service.queue_wait_ms");
  checks "sanitize leading digit" "_9lives" (ME.sanitize "9lives")

(* Gauges are sampled by the caller per render: a new value shows up in
   the next exposition (no caching inside the renderer). *)
let test_gauge_freshness () =
  let module ME = Obs.Metrics_export in
  let snap = Obs.snapshot (Obs.create ()) in
  let render v =
    ME.render
      ~gauges:
        [ { ME.g_name = "queue_depth"; g_help = "d"; g_value = v; g_labels = [] } ]
      snap
  in
  checkb "first sample" true (contains ~needle:"fpgapart_queue_depth 2\n" (render 2.0));
  checkb "second sample" true
    (contains ~needle:"fpgapart_queue_depth 5\n" (render 5.0));
  checkb "stale sample gone" false
    (contains ~needle:"fpgapart_queue_depth 2\n" (render 5.0))

(* Cumulativity holds for any observation set, in both histogram
   flavours. *)
let qcheck_render_cumulative =
  let module ME = Obs.Metrics_export in
  QCheck.Test.make ~name:"slo buckets are cumulative for any input"
    ~count:200
    QCheck.(list_of_size (QCheck.Gen.int_bound 50) (QCheck.int_bound 40_000))
    (fun samples ->
      let slo = ME.Slo.create () in
      List.iter (ME.Slo.observe slo) samples;
      let buckets = ME.Slo.buckets slo in
      let rec monotone = function
        | (_, a) :: ((_, b) :: _ as rest) -> a <= b && monotone rest
        | _ -> true
      in
      monotone buckets
      && List.for_all (fun (_, c) -> c <= ME.Slo.count slo) buckets
      && ME.Slo.count slo = List.length samples
      && ME.Slo.sum_ms slo = List.fold_left ( + ) 0 samples)

let () =
  Alcotest.run "obs"
    [
      ( "json",
        [
          Alcotest.test_case "rendering" `Quick test_json_rendering;
          Alcotest.test_case "accessors" `Quick test_json_accessors;
          Alcotest.test_case "parse basics" `Quick test_json_parse_basics;
          Alcotest.test_case "parse errors" `Quick test_json_parse_errors;
          Alcotest.test_case "parse roundtrip" `Quick test_json_roundtrip;
          QCheck_alcotest.to_alcotest qcheck_json_roundtrip;
        ] );
      ( "sink",
        [
          Alcotest.test_case "noop" `Quick test_noop_sink;
          Alcotest.test_case "counters" `Quick test_counters;
          Alcotest.test_case "span nesting" `Quick test_span_nesting;
          Alcotest.test_case "span exception safety" `Quick
            test_span_exception_safety;
          Alcotest.test_case "event order" `Quick test_event_order;
          Alcotest.test_case "fork/merge determinism" `Quick
            test_fork_merge_reproduces_sequential_stream;
        ] );
      ( "histograms",
        [
          Alcotest.test_case "basics" `Quick test_histogram_basics;
          Alcotest.test_case "json shape" `Quick test_histogram_json_shape;
          QCheck_alcotest.to_alcotest test_bucket_soundness;
          QCheck_alcotest.to_alcotest test_histogram_fork_merge;
        ] );
      ( "trace",
        [
          Alcotest.test_case "spans, lanes, json" `Quick test_trace_spans;
          Alcotest.test_case "off by default" `Quick
            test_trace_off_records_nothing;
        ] );
      ( "snapshot",
        [
          Alcotest.test_case "json shape" `Quick test_snapshot_json_shape;
          Alcotest.test_case "scrub is minimal" `Quick
            test_scrub_elapsed_is_minimal;
          Alcotest.test_case "k-way determinism regression" `Quick
            test_kway_snapshot_deterministic;
        ] );
      ( "log",
        [
          Alcotest.test_case "levels and line shape" `Quick
            test_log_levels_and_shape;
          Alcotest.test_case "scrub masks volatile fields" `Quick
            test_log_scrub_masks_volatile_fields;
          QCheck_alcotest.to_alcotest qcheck_scrubbed_log_deterministic;
        ] );
      ( "metrics export",
        [
          Alcotest.test_case "slo cumulativity" `Quick test_slo_cumulativity;
          Alcotest.test_case "openmetrics rendering" `Quick
            test_openmetrics_rendering;
          Alcotest.test_case "gauge freshness" `Quick test_gauge_freshness;
          QCheck_alcotest.to_alcotest qcheck_render_cumulative;
        ] );
    ]
