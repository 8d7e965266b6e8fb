(* The acceptance contracts, checked through the built fpgapart binary
   (dune passes its path in FPGAPART_BIN); stats documents are compared
   only through Obs.Scrub:

   - golden identity: a default run (paper objective, flat strategy, the
     outer FPGAPART_JOBS) reduces under Scrub.stable to exactly
     test/golden/<circuit>.baseline.json, the scalar partitioner's
     decisions before the objective API existed; s9234 --multilevel and
     c1355 --objective multi-personality have goldens of their own;
   - schema keys: the c6288 default run and the s9234 --multilevel run
     (golden runs) carry every documented stats key;
   - jobs independence: against a FPGAPART_JOBS=1 baseline, a same-seed
     run, --jobs 4 --trace, FPGAPART_JOBS=4, the default run and a
     multilevel run at jobs 4 are byte-identical after the null mask, and
     the stats document records neither jobs nor the trace, while the
     trace itself is a valid Chrome trace-event document; the "obs"
     object reads no clock: at jobs 1 and 4 it is byte-identical with no
     mask at all;
   - oracle identity: FPGAPART_FM_ORACLE=1 (every cached F-M gain
     cross-checked from scratch) changes nothing after the null mask, at
     the outer FPGAPART_JOBS, on c6288, or on all nine circuits when
     FPGAPART_PERF_FULL is set;
   - the non-paper objectives run, and an unknown one is refused;
   - an output path that cannot be written exits 1 with a message;
   - the daemon through the CLI (`fpgapart serve`): a permuted netlist is
     answered byte-identically from the cache and shutdown unlinks the
     socket; submit --no-wait prints the bare job id and svc-cancel the
     job's state; a 1% ECO of s38584 resubmitted warm is at least 10x faster
     than the cold run and within 2% of its cost, and the empty delta
     replies the base bytes without running F-M; the svc-metrics
     exposition follows the OpenMetrics rules and --log-scrub
     --log-file writes the scrubbed lifecycle log;
   - scale: the multilevel V-cycle partitions gen100k within its
     result.wall_secs budget (30 s, FPGAPART_ML_BUDGET_SECS) into its
     pinned result, and gen1m within 300 s
     (FPGAPART_ML_BUDGET_1M_SECS) under FPGAPART_PERF_FULL.

   The fleet's contracts through the CLI (`serve --workers N`) are in
   test_fleet. *)

module J = Obs.Json
module U = Test_util

let circuits =
  [ "c1355"; "c5315"; "c6288"; "c7552"; "s13207"; "s15850"; "s38584";
    "s5378"; "s9234" ]

let take path =
  let s = U.read_file path in
  Sys.remove path;
  s

(* The stats document of a seed-1 partition of [circuit]. *)
let stats ?env circuit args =
  let out = U.temp ".json" in
  let flags = [ "--circuit"; circuit; "--seed"; "1"; "--stats-json"; out ] in
  ignore (U.run_ok ?env (("partition" :: flags) @ args));
  U.parse_json circuit (take out)

(* Default runs feed the golden, determinism and oracle checks alike. *)
let defaults = List.map (fun c -> (c, lazy (stats c []))) circuits

let default_run circuit = Lazy.force (List.assoc circuit defaults)

let objective doc =
  Option.bind (J.member "options" doc) (J.member "objective")

(* Byte identity after the null mask; a failure shows where. *)
let check_scrubbed what a b =
  let scrub d = J.to_string (Obs.Scrub.null_mask Obs.Scrub.Stats d) in
  let a = scrub a and b = scrub b in
  if a <> b then begin
    let n = min (String.length a) (String.length b) in
    let rec first i = if i < n && a.[i] = b.[i] then first (i + 1) else i in
    let i = first 0 in
    let around s =
      let lo = max 0 (i - 80) in
      String.sub s lo (min 160 (String.length s - lo))
    in
    Alcotest.failf "%s: scrubbed documents differ at byte %d:\n%s\n---\n%s"
      what i (around a) (around b)
  end

let json = Alcotest.testable J.pp ( = )

(* Each golden: its file stem, circuit, extra flags and the objective the
   run must stamp. Besides the nine default runs, one pins the multilevel
   V-cycle and one the vector-feasibility objective. *)
let goldens =
  List.map (fun c -> (c, c, [], "paper")) circuits
  @ [
      ("s9234.multilevel", "s9234", [ "--multilevel" ], "paper");
      ( "c1355.multi-personality",
        "c1355",
        [ "--objective"; "multi-personality" ],
        "multi-personality" );
    ]

(* Every key the README documents for stats schema v7, and the fields
   that must hold a given value, on two of the golden runs. The flat
   run: the per-pass F-M event fields, the per-split device attempts,
   the result's wall/CPU stamps, the histograms of F-M gains and bucket-scan
   lengths, the incremental-rescoring telemetry, the objective name and
   per-axis resource_util, and the strategy. The multilevel run: the
   V-cycle counters, histograms and events, and the knob object. *)
let schema =
  let event e = ("event", J.String e) in
  [
    ( "c6288",
      ( [
          ("schema_version", J.Int 7); event "fm.pass";
          event "kway.device_attempt"; event "kway.split";
          ("objective", J.String "paper"); ("strategy", J.String "flat");
        ],
        [
          "circuit"; "seed"; "options"; "result"; "obs"; "counters"; "events";
          "parts"; "wall_secs"; "cpu_secs"; "pass"; "applied";
          "rolled_back"; "repl_attempted"; "repl_accepted"; "cut";
          "terminals"; "improved"; "feasible"; "span"; "fm.passes";
          "kway.device_attempts"; "kway.splits"; "fm.rescored_cells";
          "resource_util"; "clb_util"; "io_util"; "histograms"; "fm.gain";
          "fm.scan_len"; "kway.attempt_cut"; "kway.split_cut"; "count"; "sum";
          "buckets";
        ] ) );
    ( "s9234.multilevel",
      ( [ event "ml.coarsen"; event "ml.refine" ],
        [
          "ml.level"; "ml.cells_per_level"; "ml.coarsen_ratio"; "max_levels";
          "coarsen_ratio"; "refine_passes";
        ] ) );
  ]

let test_golden (stem, circuit, args, name) () =
  let doc = if args = [] then default_run circuit else stats circuit args in
  Alcotest.(check (option json))
    "objective" (Some (J.String name)) (objective doc);
  let fields, keys =
    Option.value ~default:([], []) (List.assoc_opt stem schema)
  in
  List.iter
    (fun (k, v) ->
      Alcotest.(check bool)
        (k ^ ": " ^ J.to_string v)
        true (U.has_field k v doc))
    fields;
  List.iter (fun k -> Alcotest.(check bool) k true (U.has_key k doc)) keys;
  let golden =
    U.parse_json "golden"
      (U.read_file (Printf.sprintf "golden/%s.baseline.json" stem))
  in
  Alcotest.check json "stable subset equals the golden" golden
    (Obs.Scrub.stable doc)

let test_objective_smoke () =
  List.iter
    (fun name ->
      Alcotest.(check (option json))
        ("stamps " ^ name) (Some (J.String name))
        (objective (stats "c1355" [ "--objective"; name ])))
    [ "multi-personality"; "chiplet" ];
  let code, _, _ =
    U.run [ "partition"; "--circuit"; "c1355"; "--objective"; "no-such" ]
  in
  Alcotest.(check bool) "unknown objective refused" true (code <> 0)

(* The Chrome trace-event document Perfetto loads: complete ("X") events
   carrying name, pid, tid, ts and dur; dur >= 0; ts non-decreasing per
   (pid, tid) in file order (spans are sorted by begin time); more than
   one tid; F-M pass and multi-start run spans (span names are
   slash-separated paths such as "run0/split0/dev-XC3090/pass4"). *)
let check_trace doc =
  let num k e =
    match Option.bind (J.member k e) J.to_float with
    | Some v -> v
    | None -> failwith ("X event without " ^ k ^ ": " ^ J.to_string e)
  in
  try
    let xs =
      match J.member "traceEvents" doc with
      | Some (J.List l) ->
          List.filter (fun e -> J.member "ph" e = Some (J.String "X")) l
      | _ -> failwith "no traceEvents"
    in
    if xs = [] then failwith "no complete (X) events";
    let last = Hashtbl.create 8 in
    let names =
      List.map
        (fun e ->
          let lane = (num "pid" e, num "tid" e) and ts = num "ts" e in
          if num "dur" e < 0.0 then failwith ("negative dur: " ^ J.to_string e);
          if ts < Option.value ~default:0.0 (Hashtbl.find_opt last lane) then
            failwith ("ts went backwards on its pid/tid: " ^ J.to_string e);
          Hashtbl.replace last lane ts;
          match Option.bind (J.member "name" e) J.to_str with
          | Some name -> name
          | None -> failwith ("X event without name: " ^ J.to_string e))
        xs
    in
    if List.length (List.sort_uniq compare (List.map (num "tid") xs)) < 2 then
      failwith "expected more than one tid";
    let segments = List.concat_map (String.split_on_char '/') names in
    List.iter
      (fun p ->
        if not (List.exists (String.starts_with ~prefix:p) segments) then
          failwith ("no " ^ p ^ " spans in the trace"))
      [ "pass"; "run" ];
    Ok ()
  with Failure e -> Error e

(* Every comparison is against runs pinned to FPGAPART_JOBS=1, so the
   baseline does not follow the outer setting. *)
let test_jobs_independence () =
  let one = [ "FPGAPART_JOBS=1" ] in
  let a = stats ~env:one "c6288" [] in
  Alcotest.(check bool) "options record no jobs" false (U.has_key "jobs" a);
  check_scrubbed "same seed" a (stats ~env:one "c6288" []);
  let trace = U.temp ".trace.json" in
  let j4 = stats ~env:one "c6288" [ "--jobs"; "4"; "--trace"; trace ] in
  (match check_trace (U.parse_json "trace" (take trace)) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "--trace: %s" e);
  Alcotest.(check bool) "no trace in stats" false (U.has_key "traceEvents" j4);
  check_scrubbed "--jobs 4 --trace" a j4;
  check_scrubbed "FPGAPART_JOBS=4" a
    (stats ~env:[ "FPGAPART_JOBS=4" ] "c6288" []);
  check_scrubbed "inherited FPGAPART_JOBS" a (default_run "c6288");
  check_scrubbed "multilevel --jobs 4"
    (stats ~env:one "s9234" [ "--multilevel" ])
    (stats ~env:one "s9234" [ "--multilevel"; "--jobs"; "4" ])

(* A span is timed by the trace alone, so the engine's "obs" object holds
   no clock reading: four runs at jobs 1 and at jobs 4 agree on it byte
   for byte with no mask, and no key under it names a time or a
   wall-derived rate. *)
let test_obs_clock_free () =
  let obs jobs =
    U.get Option.some [ "obs" ]
      (stats "c6288" [ "--runs"; "4"; "--jobs"; jobs ])
  in
  let one = obs "1" in
  Alcotest.(check string)
    "obs at jobs 1 and 4, unmasked" (J.to_string one) (J.to_string (obs "4"));
  let rec keys = function
    | J.Obj fields -> List.concat_map (fun (k, v) -> k :: keys v) fields
    | J.List items -> List.concat_map keys items
    | _ -> []
  in
  Alcotest.(check (list string))
    "no _secs or _per_sec key under obs" []
    (List.filter
       (fun k ->
         String.ends_with ~suffix:"_secs" k
         || String.ends_with ~suffix:"_per_sec" k)
       (keys one))

let test_oracle circuit () =
  check_scrubbed "FPGAPART_FM_ORACLE=1" (default_run circuit)
    (stats ~env:[ "FPGAPART_FM_ORACLE=1" ] circuit [])

let test_unwritable_outputs () =
  let bench = U.temp ".bench" in
  let refused what args =
    let code, _, err = U.run args in
    Alcotest.(check int) (what ^ " exit") 1 code;
    Alcotest.(check bool)
      (what ^ " message") true
      (String.starts_with ~prefix:"fpgapart: cannot write" err)
  in
  ignore (U.run_ok [ "generate"; "c1355"; bench ]);
  refused "generate" [ "generate"; "c1355"; "/nonexistent/x.bench" ];
  refused "convert" [ "convert"; bench; "/nonexistent/x.blif" ];
  refused "delta-out"
    [ "perturb"; "--circuit"; "c1355"; "--delta-out"; "/nonexistent/d.json" ];
  refused "edited-out"
    [ "perturb"; "--circuit"; "c1355"; "--edited-out"; "/nonexistent/e.bench" ];
  refused "log-file"
    [ "serve"; "--socket"; bench ^ ".sock";
      "--log-file"; "/nonexistent/l.jsonl" ];
  Sys.remove bench

let generate circuit =
  let path = U.temp ".bench" in
  ignore (U.run_ok [ "generate"; circuit; path ]);
  path

let submit d bench =
  U.run_ok
    [ "submit"; "--socket"; d.U.socket; "--bench"; bench; "--runs"; "2";
      "--seed"; "1" ]

(* A counter of a svc-stats document; an absent counter is 0. *)
let count stats name =
  Option.value ~default:0
    (Option.bind (J.member "obs" stats) (fun o ->
         Option.bind (J.member "counters" o) (fun c ->
             Option.bind (J.member name c) J.to_int)))

(* A semantics-preserving byte permutation of a .bench netlist: INPUT
   declarations first, every other non-blank statement reversed. The
   parser resolves names independent of statement order. *)
let permute text =
  let inputs, rest =
    List.partition
      (String.starts_with ~prefix:"INPUT")
      (String.split_on_char '\n' text)
  in
  let rest = List.filter (fun l -> String.trim l <> "") rest in
  String.concat "\n" (inputs @ List.rev rest) ^ "\n"

let write path text =
  Out_channel.with_open_bin path (fun oc -> output_string oc text)

let test_cli_cache_hit () =
  let bench = generate "c1355" and permuted = U.temp ".bench" in
  write permuted (permute (U.read_file bench));
  U.with_daemon [ "--queue-cap"; "4" ] (fun d ->
      let h = U.run_json [ "svc-health"; "--socket"; d.U.socket ] in
      Alcotest.(check string)
        "accepting" "accepting" (U.get J.to_str [ "state" ] h);
      List.iter
        (fun (k, v) -> Alcotest.(check int) k v (U.get J.to_int [ k ] h))
        [ ("protocol_version", 3); ("queue_cap", 4); ("queue_depth", 0);
          ("inflight", 0) ];
      Alcotest.(check bool)
        "uptime" true (U.get J.to_float [ "uptime_secs" ] h >= 0.0);
      U.check_keys "svc-health" (U.health_keys ~fleet:false) h;
      let computed = submit d bench in
      Alcotest.(check string)
        "permuted netlist answered byte-identically from the cache" computed
        (submit d permuted);
      let stats = U.run_json [ "svc-stats"; "--socket"; d.U.socket ] in
      U.check_keys "svc-stats" U.stats_keys stats;
      Alcotest.(check int) "one cache hit" 1 (count stats "service.cache_hit");
      Alcotest.(check bool)
        "a miss" true (count stats "service.cache_miss" >= 1);
      Alcotest.(check bool)
        "cached" true (U.get J.to_int [ "cache"; "len" ] stats >= 1);
      Alcotest.(check int) "clean shutdown" 0 (U.stop_daemon d);
      Alcotest.(check bool)
        "socket file removed" false (Sys.file_exists d.U.socket));
  List.iter Sys.remove [ bench; permuted ]

(* [submit --no-wait] prints the bare job id on stdout; [svc-cancel] of
   that id prints "job <id>: <state>", whichever state the job has
   reached. *)
let test_cli_no_wait_cancel () =
  let bench = generate "c1355" in
  U.with_daemon [] (fun d ->
      let out =
        U.run_ok
          [ "submit"; "--socket"; d.U.socket; "--bench"; bench; "--runs";
            "1"; "--no-wait" ]
      in
      let job =
        match int_of_string_opt (String.trim out) with
        | Some id -> id
        | None -> Alcotest.failf "no bare job id on stdout: %S" out
      in
      Alcotest.(check string) "bare id" (Printf.sprintf "%d\n" job) out;
      let out =
        U.run_ok [ "svc-cancel"; "--socket"; d.U.socket; string_of_int job ]
      in
      let prefix = Printf.sprintf "job %d: " job in
      Alcotest.(check bool)
        ("cancel reply " ^ out) true
        (List.exists
           (fun state -> String.equal out (prefix ^ state ^ "\n"))
           [ "queued"; "running"; "done"; "failed"; "cancelled" ]));
  Sys.remove bench

(* A 1% ECO of s38584 resubmitted against the base partition's digest is
   served warm at least 10x faster than the cold run of the edited
   netlist and lands within 2% of the cold cost; the empty delta replies
   the cached base document byte-for-byte without running F-M. *)
let test_cli_eco_resubmit () =
  let base = generate "s38584" in
  let delta = U.temp ".json" and edited = U.temp ".bench" in
  let empty = U.temp ".json" in
  ignore
    (U.run_ok
       [ "perturb"; "--bench"; base; "--seed"; "7"; "--frac"; "0.01";
         "--delta-out"; delta; "--edited-out"; edited ]);
  write empty {|{"ops":[]}|};
  U.with_daemon [ "--queue-cap"; "4" ] (fun d ->
      let base_reply = submit d base in
      let digest =
        U.get J.to_str [ "digest" ] (U.parse_json "base reply" base_reply)
      in
      let resubmit delta =
        U.run_ok
          [ "resubmit"; "--socket"; d.U.socket; "--base-digest"; digest;
            "--delta"; delta ]
      in
      let ms () = int_of_float (Unix.gettimeofday () *. 1000.0) in
      let t0 = ms () in
      let cold = submit d edited in
      let t1 = ms () in
      let warm = resubmit delta in
      let cold_ms = t1 - t0 and warm_ms = ms () - t1 in
      if warm_ms * 10 > cold_ms then
        Alcotest.failf "warm %d ms vs cold %d ms: not 10x faster" warm_ms
          cold_ms;
      let cost r =
        U.get J.to_float [ "result"; "total_cost" ] (U.parse_json "reply" r)
      in
      let cold = cost cold and warm = cost warm in
      if Float.abs (warm -. cold) > 0.02 *. cold then
        Alcotest.failf "warm cost %g not within 2%% of cold %g" warm cold;
      let stats () = U.run_json [ "svc-stats"; "--socket"; d.U.socket ] in
      let applied = count (stats ()) "service.fm_applied_ops" in
      Alcotest.(check string)
        "empty delta replies the base bytes" base_reply (resubmit empty);
      let stats = stats () in
      List.iter
        (fun (k, v) -> Alcotest.(check int) k v (count stats k))
        [ ("service.resubmit_warm", 1); ("service.resubmit_warm_failed", 0);
          ("service.resubmit_cold_fallback", 0); ("service.resubmit_noop", 1);
          ("service.fm_applied_ops", applied) ]);
  List.iter Sys.remove [ base; delta; edited; empty ]

let check_exposition text =
  match U.Openmetrics.check text with
  | Ok m -> m
  | Error e -> Alcotest.failf "svc-metrics: %s" e

(* One miss and one hit on a daemon logging scrubbed info lines to a
   file: the exposition follows the OpenMetrics rules and counts the
   workload, and every log line is a JSON record with a null timestamp,
   the lifecycle in order. *)
let test_cli_metrics_and_log () =
  let bench = generate "c1355" and log = U.temp ".jsonl" in
  let metrics =
    U.with_daemon
      [ "--queue-cap"; "4"; "--log-level"; "info"; "--log-scrub";
        "--log-file"; log ]
      (fun d ->
        ignore (submit d bench);
        ignore (submit d bench);
        U.run_ok [ "svc-metrics"; "--socket"; d.U.socket ])
  in
  let m = check_exposition metrics in
  Alcotest.(check (list string))
    "gauge families in order" (U.gauge_families ~fleet:false)
    (U.Openmetrics.gauges m);
  let value family =
    match U.Openmetrics.samples m family with
    | (_, v) :: _ -> v
    | [] -> Alcotest.failf "no %s sample" family
  in
  List.iter
    (fun g ->
      let family = "fpgapart_" ^ g in
      Alcotest.(check (option string))
        family (Some "gauge")
        (List.assoc_opt family m.U.Openmetrics.types);
      ignore (value family))
    [ "queue_depth"; "queue_capacity"; "inflight_jobs"; "cache_entries";
      "cache_capacity"; "cache_hit_ratio"; "uptime_seconds"; "gc_heap_words";
      "gc_major_collections" ];
  (* One miss and one hit: one executed job, two end-to-end replies. *)
  List.iter
    (fun (family, v) -> Alcotest.(check (float 0.)) family v (value family))
    [ ("fpgapart_queue_depth", 0.); ("fpgapart_queue_capacity", 4.);
      ("fpgapart_cache_hit_ratio", 0.5);
      ("fpgapart_service_cache_hit_total", 1.);
      ("fpgapart_service_queue_wait_seconds_count", 1.);
      ("fpgapart_service_run_seconds_count", 1.);
      ("fpgapart_service_e2e_seconds_count", 2.) ];
  Alcotest.(check bool)
    "requests" true
    (value "fpgapart_service_requests_total" >= 2.);
  let events =
    List.filter_map
      (fun line ->
        if line = "" then None
        else
          let r = U.parse_json "log line" line in
          let event = U.get J.to_str [ "event" ] r in
          ignore (U.get J.to_str [ "level" ] r);
          Alcotest.(check bool)
            ("scrubbed: " ^ line) true
            (J.member "ts_secs" r = Some J.Null);
          if String.starts_with ~prefix:"job." event then
            ignore (U.get J.to_str [ "corr" ] r);
          Some event)
      (String.split_on_char '\n' (take log))
  in
  let index e =
    match List.find_index (String.equal e) events with
    | Some i -> i
    | None -> Alcotest.failf "log lacks %s" e
  in
  List.iter
    (fun e -> ignore (index e))
    [ "server.start"; "server.drain"; "server.stopped" ];
  let order =
    List.map index [ "job.enqueue"; "job.dequeue"; "job.done"; "job.cache_hit" ]
  in
  Alcotest.(check (list int)) "lifecycle order" (List.sort compare order) order;
  Sys.remove bench

(* The validators refuse what they exist to catch. *)

let exposition =
  [
    "# TYPE fpgapart_jobs counter";
    "fpgapart_jobs_total 3";
    "# TYPE fpgapart_wait_seconds histogram";
    {|fpgapart_wait_seconds_bucket{le="0.1"} 1|};
    {|fpgapart_wait_seconds_bucket{le="+Inf"} 2|};
    "fpgapart_wait_seconds_sum 0.5";
    "fpgapart_wait_seconds_count 2";
    "# EOF";
  ]

let test_openmetrics_rejects () =
  let text lines = String.concat "\n" lines ^ "\n" in
  let swap a b = List.map (fun l -> if l = a then b else l) exposition in
  ignore (check_exposition (text exposition));
  List.iter
    (fun (what, lines, reason) ->
      match U.Openmetrics.check (text lines) with
      | Ok _ -> Alcotest.failf "accepted %s" what
      | Error e ->
          Alcotest.(check bool)
            (what ^ ": " ^ e) true
            (U.contains ~sub:reason e))
    [
      ("no # EOF", List.filter (( <> ) "# EOF") exposition, "# EOF");
      ( "non-cumulative buckets",
        swap {|fpgapart_wait_seconds_bucket{le="0.1"} 1|}
          {|fpgapart_wait_seconds_bucket{le="0.1"} 3|},
        "non-cumulative" );
      ( "+Inf <> _count",
        swap "fpgapart_wait_seconds_count 2" "fpgapart_wait_seconds_count 5",
        "+Inf" );
      ( "a sample before its # TYPE",
        "fpgapart_jobs_total 3" :: "# TYPE fpgapart_jobs counter"
        :: List.tl (List.tl exposition),
        "before its # TYPE" );
    ]

let test_trace_rejects () =
  let span name tid ts =
    J.Obj
      [ ("name", J.String name); ("ph", J.String "X"); ("pid", J.Int 0);
        ("tid", J.Int tid); ("ts", J.Float ts); ("dur", J.Float 1.0) ]
  in
  let doc second =
    J.Obj
      [ ( "traceEvents",
          J.List [ span "run0/pass0" 0 5.0; second; span "run1" 1 1.0 ] ) ]
  in
  Alcotest.(check (result unit string))
    "valid" (Ok ())
    (check_trace (doc (span "run0/pass1" 0 6.0)));
  Alcotest.(check bool)
    "decreasing ts on one (pid, tid)" true
    (Result.is_error (check_trace (doc (span "run0/pass1" 0 4.0))))

(* gen100k's seed-1 result: total cost, total IOBs and each part's
   (device, CLBs, IOBs). It is the one pinned multilevel result at
   100k-cell scale; the run sets no replication. A change meant to move
   multilevel results re-records it. *)
let gen100k_pin =
  ( 14700.0,
    19174,
    [ ("S4K", 2082, 515); ("S32K", 24450, 4222); ("S32K", 13618, 2749);
      ("S32K", 21872, 3886); ("S32K", 24011, 4046); ("S32K", 19644, 3753);
      ("S4K", 1, 3) ] )

(* The V-cycle takes a seeded Rent-profile circuit to a feasible
   partition inside the wall budget. The partition phase lands in
   single-digit seconds on a typical desktop core at 100k cells; the
   budget leaves headroom for slow CI hosts. Feasibility shows in the
   result itself: a partition error exits non-zero, and the document
   carries the parts of a Kway.check-clean result. gen100k's result is
   pinned too ([gen100k_pin]). *)
let test_scale (circuit, budget_var, budget) () =
  let budget =
    Option.value ~default:budget
      (Option.bind (Sys.getenv_opt budget_var) float_of_string_opt)
  in
  let doc =
    stats circuit
      [ "--device-lib"; "../bench/scale_devices.json"; "--multilevel" ]
  in
  let parts =
    U.get (function J.List l -> Some l | _ -> None) [ "result"; "parts" ] doc
  in
  Alcotest.(check bool) "parts" true (parts <> []);
  Alcotest.(check bool)
    "a feasible run" true
    (U.get J.to_int [ "result"; "feasible_runs" ] doc >= 1);
  if circuit = "gen100k" then begin
    let cost, iobs, pinned = gen100k_pin in
    let part p =
      ( U.get (function J.String s -> Some s | _ -> None) [ "device" ] p,
        U.get J.to_int [ "clbs" ] p,
        U.get J.to_int [ "iobs" ] p )
    in
    Alcotest.(check (float 0.0))
      "total cost" cost
      (U.get J.to_float [ "result"; "total_cost" ] doc);
    Alcotest.(check int) "total IOBs" iobs
      (U.get J.to_int [ "result"; "total_iobs" ] doc);
    Alcotest.(check (list (triple string int int)))
      "parts" pinned (List.map part parts)
  end;
  let wall = U.get J.to_float [ "result"; "wall_secs" ] doc in
  if wall > budget then
    Alcotest.failf "%s partition took %.1fs (budget %.0fs)" circuit wall budget

let () =
  let full = Sys.getenv_opt "FPGAPART_PERF_FULL" <> None in
  let oracle = if full then circuits else [ "c6288" ] in
  let scale =
    ("gen100k", "FPGAPART_ML_BUDGET_SECS", 30.0)
    :: (if full then [ ("gen1m", "FPGAPART_ML_BUDGET_1M_SECS", 300.0) ]
        else [])
  in
  let cases f = List.map (fun c -> Alcotest.test_case c `Slow (f c)) in
  Alcotest.run "contracts"
    [
      ( "golden",
        List.map
          (fun ((stem, _, _, _) as g) ->
            Alcotest.test_case stem `Slow (test_golden g))
          goldens );
      ( "objectives",
        [ Alcotest.test_case "smoke and refusal" `Quick test_objective_smoke ]
      );
      ( "determinism",
        [
          Alcotest.test_case "jobs independence" `Slow test_jobs_independence;
          Alcotest.test_case "obs reads no clock" `Slow test_obs_clock_free;
        ] );
      ("oracle", cases test_oracle oracle);
      ( "cli",
        [ Alcotest.test_case "unwritable outputs" `Quick
            test_unwritable_outputs ] );
      ( "daemon cli",
        [
          Alcotest.test_case "permuted netlist cache hit" `Slow
            test_cli_cache_hit;
          Alcotest.test_case "1% ECO resubmit" `Slow test_cli_eco_resubmit;
          Alcotest.test_case "metrics and scrubbed log file" `Slow
            test_cli_metrics_and_log;
          Alcotest.test_case "no-wait submit and cancel" `Slow
            test_cli_no_wait_cancel;
        ] );
      ( "validators",
        [
          Alcotest.test_case "openmetrics rejects" `Quick
            test_openmetrics_rejects;
          Alcotest.test_case "trace rejects" `Quick test_trace_rejects;
        ] );
      ( "scale",
        List.map
          (fun ((c, _, _) as s) -> Alcotest.test_case c `Slow (test_scale s))
          scale );
    ]
