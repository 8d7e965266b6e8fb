(* Tests for the domain pool and for the tentpole guarantee of the
   parallel multi-start search: the partition, the telemetry event stream
   and every counter are byte-identical across [jobs] settings. *)

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Parallel.Pool                                                      *)
(* ------------------------------------------------------------------ *)

let test_pool_index_order () =
  let squares = Parallel.Pool.run ~jobs:4 10 (fun i -> i * i) in
  Alcotest.(check (array int))
    "results land at their index"
    (Array.init 10 (fun i -> i * i))
    squares

let test_pool_edge_cases () =
  checki "n = 0 yields an empty array" 0
    (Array.length (Parallel.Pool.run ~jobs:4 0 (fun i -> i)));
  Alcotest.(check (array int))
    "more jobs than work" [| 7 |]
    (Parallel.Pool.run ~jobs:8 1 (fun _ -> 7));
  Alcotest.(check (array int))
    "jobs = 1 runs inline" [| 0; 1; 2 |]
    (Parallel.Pool.run ~jobs:1 3 (fun i -> i))

let test_pool_exception () =
  (* All indices still execute / join; the exception re-raised afterwards
     is the one from the smallest failing index, deterministically. *)
  Alcotest.check_raises "smallest failing index wins" (Failure "boom3")
    (fun () ->
      ignore
        (Parallel.Pool.run ~jobs:4 10 (fun i ->
             if i = 3 || i = 7 then failwith (Printf.sprintf "boom%d" i)
             else i)))

let test_pool_nested () =
  let sums =
    Parallel.Pool.run ~jobs:2 4 (fun i ->
        Array.fold_left ( + ) 0
          (Parallel.Pool.run ~jobs:2 3 (fun j -> (i * 10) + j)))
  in
  Alcotest.(check (array int))
    "nested pools compose"
    [| 3; 33; 63; 93 |]
    sums

let test_worker_id () =
  checki "calling domain is worker 0" 0 (Parallel.Pool.worker_id ());
  (* Items must take long enough that one worker cannot drain the whole
     queue before the others finish spawning. *)
  let ids =
    Parallel.Pool.run ~jobs:4 64 (fun _ ->
        Unix.sleepf 0.002;
        Parallel.Pool.worker_id ())
  in
  Array.iter
    (fun id -> checkb "spawned workers are 1..jobs" true (id >= 1 && id <= 4))
    ids;
  let distinct = List.sort_uniq compare (Array.to_list ids) in
  checkb "more than one worker participated" true (List.length distinct > 1);
  checki "jobs=1 stays on the calling domain" 0
    (Parallel.Pool.run ~jobs:1 1 (fun _ -> Parallel.Pool.worker_id ())).(0);
  checki "worker id restored after the pool" 0 (Parallel.Pool.worker_id ())

let test_jobs_from_env () =
  let var = "FPGAPART_TEST_JOBS" in
  Unix.putenv var "4";
  checki "well-formed value" 4 (Parallel.Pool.jobs_from_env ~var ());
  Unix.putenv var "garbage";
  checki "malformed falls back to 1" 1 (Parallel.Pool.jobs_from_env ~var ());
  Unix.putenv var "0";
  checki "non-positive falls back to 1" 1 (Parallel.Pool.jobs_from_env ~var ());
  checki "unset falls back to 1" 1
    (Parallel.Pool.jobs_from_env ~var:"FPGAPART_SURELY_UNSET_VAR" ())

(* ------------------------------------------------------------------ *)
(* jobs-independence of Kway.partition                                *)
(* ------------------------------------------------------------------ *)

let mapped_hypergraph c =
  Techmap.Mapper.to_hypergraph (Techmap.Mapper.map c)

(* Everything except the two [_secs] timing fields. *)
let comparable (r : Core.Kway.result) =
  ( r.Core.Kway.parts,
    r.Core.Kway.summary,
    r.Core.Kway.replicated_cells,
    r.Core.Kway.total_cells,
    r.Core.Kway.runs,
    r.Core.Kway.feasible_runs )

let partition_with_snapshot ~jobs ~runs h =
  let options =
    Core.Kway.Options.make ~runs ~replication:(`Functional 0) ~jobs ()
  in
  let obs = Obs.create () in
  let r =
    match Core.Kway.partition ~obs ~options ~library:Fpga.Library.xc3000 h with
    | Ok r -> r
    | Error e -> Alcotest.fail e
  in
  (match Core.Kway.check h r with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("unsound: " ^ e));
  let scrubbed =
    Obs.Json.to_string
      (Obs.Snapshot.scrub_elapsed (Obs.Snapshot.to_json (Obs.snapshot obs)))
  in
  (r, scrubbed)

let test_kway_jobs_independent () =
  (* The acceptance gate of the parallel search: jobs=4 must reproduce the
     jobs=1 partition and its scrubbed telemetry byte for byte. The 16-bit
     multiplier needs several devices, so runs exercise splits, device
     attempts and F-M restarts. *)
  let h = mapped_hypergraph (Netlist.Generator.multiplier ~bits:16 ()) in
  let r1, snap1 = partition_with_snapshot ~jobs:1 ~runs:3 h in
  let r4, snap4 = partition_with_snapshot ~jobs:4 ~runs:3 h in
  checkb "identical result (jobs=4 vs jobs=1)" true
    (comparable r1 = comparable r4);
  checks "byte-identical scrubbed telemetry" snap1 snap4

let test_kway_attempt_level_parallelism () =
  (* runs < jobs routes the surplus domains to the per-split F-M
     restarts; the pre-drawn RNG streams keep that path deterministic
     too. *)
  let h = mapped_hypergraph (Netlist.Generator.multiplier ~bits:16 ()) in
  let r1, snap1 = partition_with_snapshot ~jobs:1 ~runs:1 h in
  let r4, snap4 = partition_with_snapshot ~jobs:4 ~runs:1 h in
  checkb "identical result (attempt-level jobs)" true
    (comparable r1 = comparable r4);
  checks "byte-identical scrubbed telemetry" snap1 snap4

let test_traced_partition_lanes () =
  (* A traced jobs=4 partition: every multi-start run span must sit on a
     spawned worker's track (tid 1..jobs), the F-M passes must appear as
     spans, and the scrubbed stats must stay byte-identical to a traced
     jobs=1 run — the trace is an artifact, never an influence. *)
  let h = mapped_hypergraph (Netlist.Generator.multiplier ~bits:16 ()) in
  let jobs = 4 in
  let go jobs =
    let options = Core.Kway.Options.make ~runs:8 ~jobs () in
    let obs = Obs.create ~trace:true () in
    (match Core.Kway.partition ~obs ~options ~library:Fpga.Library.xc3000 h with
    | Ok _ -> ()
    | Error e -> Alcotest.fail e);
    let scrubbed =
      Obs.Json.to_string
        (Obs.Snapshot.scrub_elapsed (Obs.Snapshot.to_json (Obs.snapshot obs)))
    in
    (Obs.Trace.spans obs, scrubbed)
  in
  let spans, snap4 = go jobs in
  let run_spans =
    List.filter
      (fun s ->
        String.length s.Obs.Trace.span_name >= 3
        && String.sub s.Obs.Trace.span_name 0 3 = "run")
      spans
  in
  checkb "has run spans" true (run_spans <> []);
  List.iter
    (fun s ->
      checkb
        (s.Obs.Trace.span_name ^ " on a worker track")
        true
        (s.Obs.Trace.span_tid >= 1 && s.Obs.Trace.span_tid <= jobs))
    run_spans;
  let tids =
    List.sort_uniq compare (List.map (fun s -> s.Obs.Trace.span_tid) run_spans)
  in
  checkb "runs spread over more than one track" true (List.length tids > 1);
  checkb "one pid per multi-start run" true
    (List.length
       (List.sort_uniq compare
          (List.map (fun s -> s.Obs.Trace.span_pid) run_spans))
    = 8);
  checkb "F-M passes appear as spans" true
    (List.exists
       (fun s ->
         List.exists
           (fun seg ->
             String.length seg >= 4 && String.sub seg 0 4 = "pass")
           (String.split_on_char '/' s.Obs.Trace.span_name))
       spans);
  let _, snap1 = go 1 in
  checks "scrubbed stats byte-identical to traced jobs=1" snap1 snap4

let prop_partition_independent_of_jobs =
  QCheck.Test.make
    ~name:"partition independent of jobs on generated circuits" ~count:6
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let rng = Netlist.Rng.create seed in
      let c =
        Netlist.Generator.random ~rng ~num_inputs:(8 + (seed mod 7))
          ~num_gates:(120 + (seed mod 100))
          ~num_dff:(seed mod 9)
          ~num_outputs:(6 + (seed mod 5))
          ()
      in
      let h = mapped_hypergraph c in
      let go jobs =
        let options =
          Core.Kway.Options.make ~runs:2 ~seed:(seed + 1)
            ~replication:(`Functional 0) ~jobs ()
        in
        Core.Kway.partition ~options ~library:Fpga.Library.xc3000 h
      in
      match (go 1, go 3) with
      | Error a, Error b -> a = b
      | Ok a, Ok b ->
          comparable a = comparable b
          || QCheck.Test.fail_report "jobs changed the partition"
      | Ok _, Error _ | Error _, Ok _ ->
          QCheck.Test.fail_report "jobs changed feasibility")

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "index order" `Quick test_pool_index_order;
          Alcotest.test_case "edge cases" `Quick test_pool_edge_cases;
          Alcotest.test_case "exception propagation" `Quick test_pool_exception;
          Alcotest.test_case "nested pools" `Quick test_pool_nested;
          Alcotest.test_case "worker ids" `Quick test_worker_id;
          Alcotest.test_case "jobs_from_env" `Quick test_jobs_from_env;
        ] );
      ( "kway-determinism",
        [
          Alcotest.test_case "jobs=4 equals jobs=1" `Slow
            test_kway_jobs_independent;
          Alcotest.test_case "attempt-level parallelism" `Slow
            test_kway_attempt_level_parallelism;
          Alcotest.test_case "traced partition lanes" `Slow
            test_traced_partition_lanes;
          QCheck_alcotest.to_alcotest prop_partition_independent_of_jobs;
        ] );
    ]
