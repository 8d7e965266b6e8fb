(* Tests for the experiment harness: the benchmark suite, per-table
   runners (on reduced run counts), and the partition-expansion
   verification — the end-to-end proof that partitioning with functional
   replication preserves circuit function. *)

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool

(* ------------------------------------------------------------------ *)
(* Suite                                                              *)
(* ------------------------------------------------------------------ *)

let test_suite_shape () =
  let entries = Experiments.Suite.all () in
  checki "nine circuits" 9 (List.length entries);
  let names = List.map (fun e -> e.Experiments.Suite.name) entries in
  Alcotest.check
    Alcotest.(list string)
    "paper order"
    [ "c1355"; "c5315"; "c6288"; "c7552"; "s5378"; "s9234"; "s13207";
      "s15850"; "s38584" ]
    names;
  List.iter
    (fun e ->
      checkb "display marks substitution" true
        (String.length e.Experiments.Suite.display > 0
        && e.Experiments.Suite.display.[String.length e.Experiments.Suite.display - 1]
           = '*'))
    entries

let test_suite_find () =
  checkb "find known" true (Experiments.Suite.find "c6288" <> None);
  checkb "find unknown" true (Experiments.Suite.find "c17" = None)

let test_suite_memoised () =
  match Experiments.Suite.find "c1355" with
  | None -> Alcotest.fail "c1355 missing"
  | Some e ->
      let a = Lazy.force e.Experiments.Suite.hypergraph in
      let b = Lazy.force e.Experiments.Suite.hypergraph in
      checkb "lazy shares the hypergraph" true (a == b)

let test_suite_sequential_flags () =
  List.iter
    (fun e ->
      let c = Lazy.force e.Experiments.Suite.circuit in
      let has_dff = Netlist.Circuit.num_dff c > 0 in
      checkb
        (e.Experiments.Suite.name ^ " sequential flag")
        e.Experiments.Suite.sequential has_dff)
    (Experiments.Suite.all ())

(* Mapping of each suite entry is functionally sound. (The two largest
   entries are exercised by the bench harness; re-simulating them here
   would dominate the test suite's runtime.) *)
let test_suite_mapping_equivalence () =
  List.iter
    (fun name ->
      match Experiments.Suite.find name with
      | None -> Alcotest.fail ("missing " ^ name)
      | Some e ->
          let c = Lazy.force e.Experiments.Suite.circuit in
          let m = Lazy.force e.Experiments.Suite.mapped in
          checkb (name ^ " mapped equivalently") true
            (Techmap.Mapped.equivalent ~vectors:16 c m))
    [ "c1355"; "c6288"; "s5378"; "s9234" ]

(* ------------------------------------------------------------------ *)
(* Table runners (reduced effort)                                     *)
(* ------------------------------------------------------------------ *)

let small_entry () =
  match Experiments.Suite.find "c1355" with
  | Some e -> e
  | None -> Alcotest.fail "c1355 missing"

let mid_entry () =
  match Experiments.Suite.find "s9234" with
  | Some e -> e
  | None -> Alcotest.fail "s9234 missing"

let test_table2_row () =
  let r = Experiments.Table2.run (small_entry ()) in
  checkb "has CLBs" true (r.Experiments.Table2.clbs > 0);
  (* IOBs = chip pads of the source circuit. *)
  let c = Lazy.force (small_entry ()).Experiments.Suite.circuit in
  checki "IOBs = PI + PO"
    (Array.length c.Netlist.Circuit.inputs + Array.length c.Netlist.Circuit.outputs)
    r.Experiments.Table2.iobs

let test_fig3_row () =
  let r = Experiments.Fig3.run (mid_entry ()) in
  let total =
    r.Experiments.Fig3.pct_single_output
    +. r.Experiments.Fig3.pct_multi_psi0
    +. List.fold_left (fun acc (_, v) -> acc +. v) 0.0 r.Experiments.Fig3.by_psi
  in
  checkb "percentages sum to 100" true (Float.abs (total -. 100.0) < 0.5);
  (* The paper's qualitative claim: a substantial share of cells has
     psi >= 1 after mapping. *)
  let psi_ge_1 =
    List.fold_left (fun acc (_, v) -> acc +. v) 0.0 r.Experiments.Fig3.by_psi
  in
  checkb "most replication potential exists" true (psi_ge_1 > 30.0)

let test_table3_row () =
  let r = Experiments.Table3.run ~runs:4 ~seed:3 (mid_entry ()) in
  checkb "plain found cuts" true (r.Experiments.Table3.plain_best > 0);
  checkb "replication never worse (staged)" true
    (r.Experiments.Table3.repl_best <= r.Experiments.Table3.plain_best);
  checkb "avg >= best" true
    (r.Experiments.Table3.repl_avg >= float_of_int r.Experiments.Table3.repl_best);
  (* On a clustered sequential circuit the reduction should be large; use
     a conservative floor. *)
  checkb "sequential circuits gain a lot" true
    (r.Experiments.Table3.best_reduction > 20.0)

let test_kway_campaign_row () =
  let r =
    Experiments.Kway_campaign.run ~runs:2 ~seed:2
      ~settings:[ Experiments.Kway_campaign.Baseline; Experiments.Kway_campaign.Threshold 1 ]
      (mid_entry ())
  in
  checki "two settings" 2 (List.length r.Experiments.Kway_campaign.results);
  List.iter
    (fun (_, o) ->
      checkb "feasible" true o.Experiments.Kway_campaign.feasible;
      checkb "cost positive" true (o.Experiments.Kway_campaign.cost > 0.0);
      checkb "clb util sane" true
        (o.Experiments.Kway_campaign.clb_util > 0.2
        && o.Experiments.Kway_campaign.clb_util <= 1.0);
      checkb "iob util sane" true
        (o.Experiments.Kway_campaign.iob_util > 0.0
        && o.Experiments.Kway_campaign.iob_util <= 1.0))
    r.Experiments.Kway_campaign.results;
  (* Replication relieves the interconnect: the paper's Table VII story. *)
  let util s =
    match List.assoc_opt s r.Experiments.Kway_campaign.results with
    | Some o -> o.Experiments.Kway_campaign.iob_util
    | None -> nan
  in
  checkb "IOB utilization reduced by replication" true
    (util (Experiments.Kway_campaign.Threshold 1)
    < util Experiments.Kway_campaign.Baseline)

let test_objectives_rows () =
  let rows = Experiments.Objectives.run ~runs:2 ~seed:1 (mid_entry ()) in
  checki "one row per builtin objective"
    (List.length Fpga.Objective.builtins)
    (List.length rows);
  List.iter
    (fun (r : Experiments.Objectives.row) ->
      match r.Experiments.Objectives.outcome with
      | Error e -> Alcotest.fail (r.Experiments.Objectives.objective ^ ": " ^ e)
      | Ok result ->
          checkb "cost positive" true
            (result.Core.Kway.summary.Fpga.Cost.total_cost > 0.0))
    rows

let test_multilevel_init_quality () =
  (* The multilevel initial solution must not lose to random init + F-M on
     a clustered circuit (it usually wins clearly). *)
  let h =
    Techmap.Mapper.to_hypergraph
      (Techmap.Mapper.map
         (Netlist.Generator.clustered
            { Netlist.Generator.default_clustered with clusters = 10; seed = 17 }))
  in
  let total = Hypergraph.total_area h in
  let cfg = Core.Fm.balance_config ~total_area:total () in
  let best f =
    let b = ref max_int in
    for s = 1 to 4 do
      b := min !b (f (Netlist.Rng.create s))
    done;
    !b
  in
  let flat =
    best (fun rng ->
        let st = Core.Fm.random_state rng h in
        let _, cut, _ = Core.Fm.run cfg st in
        cut)
  in
  let ml =
    best (fun rng ->
        let st = Experiments.Ablation.multilevel_init ~rng cfg h in
        checkb "consistent" true
          (Result.is_ok (Partition_state.check_consistency st));
        let _, cut, _ = Core.Fm.run cfg st in
        cut)
  in
  checkb "multilevel at least competitive" true
    (float_of_int ml <= 1.1 *. float_of_int flat)

(* Ablation A with its defaults (10 runs, seed 7) on two circuits, pinned
   to the (no replication, traditional, functional) best cuts
   [bench/main.exe ablation] prints. *)
let test_replication_model_pinned () =
  List.iter
    (fun (entry, (plain, traditional, functional)) ->
      let r = Experiments.Ablation.replication_model (entry ()) in
      let name = r.Experiments.Ablation.name in
      checki (name ^ " no replication") plain r.Experiments.Ablation.plain_best;
      checki (name ^ " traditional") traditional
        r.Experiments.Ablation.traditional_best;
      checki (name ^ " functional") functional
        r.Experiments.Ablation.functional_best)
    [ (small_entry, (30, 25, 22)); (mid_entry, (80, 80, 34)) ]

(* ------------------------------------------------------------------ *)
(* Partition expansion (end-to-end functional soundness)              *)
(* ------------------------------------------------------------------ *)

(* Partition [circuit] under [strategy] and [replication], simulate the
   expanded multi-device netlist against it, and return the result with
   the number of coarsening levels the run recorded. *)
let expand_roundtrip ?(library = Fpga.Library.xc3000) ?map_options
    ?(runs = 2) name circuit strategy replication =
  let m = Techmap.Mapper.map ?options:map_options circuit in
  let h = Techmap.Mapper.to_hypergraph m in
  let options = Core.Kway.Options.make ~runs ~replication ~strategy () in
  let obs = Obs.create () in
  match Core.Kway.partition ~obs ~options ~library h with
  | Error e -> Alcotest.fail (name ^ ": k-way failed: " ^ e)
  | Ok r -> (
      match Experiments.Expand.verify circuit m r with
      | Ok () ->
          ( r,
            Option.value ~default:0
              (List.assoc_opt "ml.level" (Obs.snapshot obs).Obs.Snapshot.counters)
          )
      | Error e -> Alcotest.fail (name ^ ": " ^ e))

let test_expand_combinational () =
  (* Forces multiple devices and actual replication. *)
  let c = Netlist.Generator.multiplier ~bits:16 () in
  let r, _ = expand_roundtrip "mult16" c Core.Kway.Flat (`Functional 0) in
  checkb "replication actually happened" true (r.Core.Kway.replicated_cells > 0)

let test_expand_sequential () =
  let c =
    Netlist.Generator.clustered
      {
        Netlist.Generator.default_clustered with
        clusters = 10;
        gates_per_cluster = 90;
        dffs_per_cluster = 20;
        seed = 21;
      }
  in
  let r, _ = expand_roundtrip "clustered" c Core.Kway.Flat (`Functional 1) in
  checkb "multi-device" true (List.length r.Core.Kway.parts >= 2)

let test_expand_no_replication () =
  let c = Netlist.Generator.adder_comparator ~bits:48 () in
  let r, _ = expand_roundtrip "addcmp" c Core.Kway.Flat `None in
  checki "no replicas in baseline" 0 r.Core.Kway.replicated_cells

(* The V-cycle's results simulate like the circuit too, replication
   included: s9234 under XC3000 as `partition --multilevel -T 1` runs it
   (five runs), and a 10k-gate scale circuit (5,333 mapped cells) into a
   one-device library. *)
let expand_multilevel ?library ?map_options ?runs name circuit =
  let r, levels =
    expand_roundtrip ?library ?map_options ?runs name circuit
      (Core.Kway.Multilevel Core.Kway.Options.default_multilevel)
      (`Functional 1)
  in
  checkb (name ^ ": replicates") true (r.Core.Kway.replicated_cells >= 1);
  checkb (name ^ ": coarsened") true (levels >= 1)

let test_expand_multilevel_s9234 () =
  expand_multilevel ~runs:Core.Kway.Options.default.Core.Kway.runs "s9234"
    (Lazy.force (Option.get (Experiments.Suite.find "s9234")).Experiments.Suite.circuit)

let test_expand_multilevel_scale () =
  expand_multilevel "scale10k"
    ~library:
      (Fpga.Library.make
         [
           Fpga.Device.make ~name:"D" ~capacity:1024 ~terminals:900
             ~price:100.0 ~util_low:0.5 ~util_high:0.95 ();
         ])
    ~map_options:{ Techmap.Mapper.default_options with pair_disjoint = false }
    (Netlist.Generator.scale ~name:"scale10k"
       { Netlist.Generator.default_scale with sc_gates = 10_000; sc_seed = 3 })

(* Warm starts from a flat XC3000 partition of [c] under [replication]
   after each of four 1% edits, remapped and projected as the daemon's
   resubmit does: per edit seed, the edited circuit, its mapping and the
   outcome. *)
let warm_starts name c replication =
  let base, _ = expand_roundtrip name c Core.Kway.Flat replication in
  let h = Techmap.Mapper.to_hypergraph (Techmap.Mapper.map c) in
  let options = Core.Kway.Options.make ~runs:2 ~replication () in
  List.map
    (fun seed ->
      let delta = Netlist.Delta.random ~seed ~frac:0.01 c in
      let edited =
        match Netlist.Delta.apply c delta with
        | Ok e -> e
        | Error e -> Alcotest.fail (Netlist.Delta.error_to_string e)
      in
      let m = Techmap.Mapper.map edited in
      let h' = Techmap.Mapper.to_hypergraph m in
      let warm, _ =
        Core.Kway.project_warm ~base:h ~base_parts:base.Core.Kway.parts h'
      in
      ( seed,
        edited,
        m,
        Core.Kway.warm_start ~options ~library:Fpga.Library.xc3000 ~warm h' ))
    [ 1; 2; 3; 4 ]

(* A warm start simulates like the edited circuit: on the sequential
   case's clustered circuit, replicated, every warm start that succeeds
   must pass [Expand.verify] against the edited circuit, and at least one
   must succeed and replicate. *)
let test_expand_warm_start () =
  let c =
    Netlist.Generator.clustered
      {
        Netlist.Generator.default_clustered with
        clusters = 10;
        gates_per_cluster = 90;
        dffs_per_cluster = 20;
        seed = 21;
      }
  in
  let warm_results =
    List.filter_map
      (fun (seed, edited, m, outcome) ->
        match outcome with
        | Error _ -> None
        | Ok r -> (
            match Experiments.Expand.verify edited m r with
            | Ok () -> Some r
            | Error e ->
                Alcotest.failf "clustered delta seed %d: %s" seed e))
      (warm_starts "clustered" c (`Functional 1))
  in
  checkb "a warm start succeeded" true (warm_results <> []);
  checkb "a warm start replicates" true
    (List.exists (fun r -> r.Core.Kway.replicated_cells > 0) warm_results)

(* A replicated 16-bit multiplier gives no such case: collapsing its
   replicated cells overflows every device's IOBs, so each warm start
   returns [Error] (and the daemon runs cold). The error must name the
   entry point that was called, not a phase behind it. *)
let test_warm_start_error_names_caller () =
  let errors =
    List.filter_map
      (fun (_, _, _, outcome) ->
        match outcome with Ok _ -> None | Error e -> Some e)
      (warm_starts "mult16"
         (Netlist.Generator.multiplier ~bits:16 ())
         (`Functional 0))
  in
  checkb "a warm start failed" true (errors <> []);
  List.iter
    (fun e ->
      checkb e true (String.starts_with ~prefix:"Kway.warm_start: " e))
    errors

let test_expand_detects_missing_output () =
  let c = Netlist.Generator.multiplier ~bits:16 () in
  let m = Techmap.Mapper.map c in
  let h = Techmap.Mapper.to_hypergraph m in
  let options = Core.Kway.Options.make ~runs:1 () in
  match Core.Kway.partition ~options ~library:Fpga.Library.xc3000 h with
  | Error e -> Alcotest.fail e
  | Ok r ->
      let broken =
        match r.Core.Kway.parts with
        | p :: rest ->
            {
              r with
              Core.Kway.parts =
                { p with Core.Kway.members = List.tl p.Core.Kway.members }
                :: rest;
            }
        | [] -> r
      in
      checkb "verify rejects uncovered output" true
        (Result.is_error (Experiments.Expand.verify c m broken))

(* ------------------------------------------------------------------ *)
(* Timing evaluation                                                  *)
(* ------------------------------------------------------------------ *)

let test_timing_eval () =
  match Experiments.Suite.find "s9234" with
  | None -> Alcotest.fail "s9234 missing"
  | Some entry -> (
      match Experiments.Timing_eval.run ~runs:2 ~seed:4 entry with
      | None -> Alcotest.fail "timing evaluation failed to partition"
      | Some row ->
          checkb "baseline delay positive" true
            (row.Experiments.Timing_eval.baseline_delay > 0.0);
          checkb "replication delay positive" true
            (row.Experiments.Timing_eval.repl_delay > 0.0);
          (* Replication cannot make the interconnect-dominated critical
             path dramatically worse; allow slack for heuristic noise. *)
          checkb "replication roughly as fast or faster" true
            (row.Experiments.Timing_eval.repl_delay
            <= 1.15 *. row.Experiments.Timing_eval.baseline_delay))

let test_crossing_nets_matches_iobs () =
  (* Every net flagged crossing either reaches a pad or touches >= 2
     parts; pads are always crossing. *)
  let c = Netlist.Generator.multiplier ~bits:16 () in
  let m = Techmap.Mapper.map c in
  let h = Techmap.Mapper.to_hypergraph m in
  let options = Core.Kway.Options.make ~runs:1 () in
  match Core.Kway.partition ~options ~library:Fpga.Library.xc3000 h with
  | Error e -> Alcotest.fail e
  | Ok r ->
      let crossing = Experiments.Timing_eval.crossing_nets h r in
      Array.iteri
        (fun n ext -> if ext then checkb "pads cross" true crossing.(n))
        h.Hypergraph.net_external;
      (* At least the recorded IOB sum's worth of crossing nets exist. *)
      let n_crossing =
        Array.fold_left (fun acc x -> if x then acc + 1 else acc) 0 crossing
      in
      checkb "some crossings" true (n_crossing > 0)

(* The stats document of a finished and of a cancelled run: the same
   keys in the same order, "interrupted": true where "result" stands. *)
let test_stats_doc_keys () =
  let h =
    Techmap.Mapper.to_hypergraph
      (Techmap.Mapper.map (Netlist.Generator.c17 ()))
  in
  let options = Core.Kway.Options.make ~runs:1 () in
  let obs = Obs.create () in
  let r =
    match Core.Kway.partition ~obs ~options ~library:Fpga.Library.xc3000 h with
    | Ok r -> r
    | Error e -> Alcotest.fail e
  in
  let doc result =
    Experiments.Obs_report.doc ~name:"c17" ~options ~result
      ~snapshot:(Obs.snapshot obs)
  in
  let keys = function Obs.Json.Obj f -> List.map fst f | _ -> [] in
  let head = [ "schema_version"; "circuit"; "seed"; "options" ] in
  Alcotest.(check (list string))
    "finished" (head @ [ "result"; "obs" ]) (keys (doc (Some r)));
  let interrupted = doc None in
  Alcotest.(check (list string))
    "interrupted" (head @ [ "interrupted"; "obs" ]) (keys interrupted);
  checkb "interrupted is true" true
    (Obs.Json.member "interrupted" interrupted = Some (Obs.Json.Bool true))

let () =
  Alcotest.run "experiments"
    [
      ( "stats",
        [ Alcotest.test_case "interrupted document keys" `Quick
            test_stats_doc_keys ] );
      ( "suite",
        [
          Alcotest.test_case "shape" `Quick test_suite_shape;
          Alcotest.test_case "find" `Quick test_suite_find;
          Alcotest.test_case "memoised" `Quick test_suite_memoised;
          Alcotest.test_case "sequential flags" `Quick test_suite_sequential_flags;
          Alcotest.test_case "mapping equivalence" `Slow
            test_suite_mapping_equivalence;
        ] );
      ( "tables",
        [
          Alcotest.test_case "table2 row" `Quick test_table2_row;
          Alcotest.test_case "fig3 row" `Quick test_fig3_row;
          Alcotest.test_case "table3 row" `Slow test_table3_row;
          Alcotest.test_case "k-way campaign row" `Slow test_kway_campaign_row;
          Alcotest.test_case "objectives ablation rows" `Slow
            test_objectives_rows;
        ] );
      ( "ablation",
        [
          Alcotest.test_case "multilevel init quality" `Quick
            test_multilevel_init_quality;
          Alcotest.test_case "replication model pinned" `Quick
            test_replication_model_pinned;
        ] );
      ( "timing",
        [
          Alcotest.test_case "timing evaluation" `Slow test_timing_eval;
          Alcotest.test_case "crossing nets" `Slow test_crossing_nets_matches_iobs;
        ] );
      ( "expand",
        [
          Alcotest.test_case "combinational with replication" `Slow
            test_expand_combinational;
          Alcotest.test_case "sequential with replication" `Slow
            test_expand_sequential;
          Alcotest.test_case "baseline" `Slow test_expand_no_replication;
          Alcotest.test_case "multilevel s9234 with replication" `Slow
            test_expand_multilevel_s9234;
          Alcotest.test_case "multilevel scale10k with replication" `Slow
            test_expand_multilevel_scale;
          Alcotest.test_case "detects uncovered outputs" `Quick
            test_expand_detects_missing_output;
          Alcotest.test_case "warm start after a 1% edit" `Slow
            test_expand_warm_start;
          Alcotest.test_case "warm start errors name their caller" `Slow
            test_warm_start_error_names_caller;
        ] );
    ]
