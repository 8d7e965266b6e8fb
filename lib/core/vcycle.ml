open Kway_types

(* Per-axis cluster weight caps for the coarsening: a fraction of the
   {e smallest} per-axis device window in the library, so even a part on
   the cheapest device is assembled from several clusters and the coarse
   F-M retains packing freedom — capping by the largest window lets one
   cluster swallow half an XC3090, which no XC3030-sized part can then
   accept, and the IOB windows become unreachable at that granularity.
   Secondary axes are capped only where the objective's windows bound
   them: under the paper's scalar feasibility they leave every secondary
   axis at [max_int] (capping them would refuse merges the model cannot
   reject), so only the CLB axis binds; under vector feasibility every
   demand axis is capped so coarse clusters stay placeable. *)
let cluster_caps windows =
  (* Devices without a resource (axis cap 0) don't constrain that axis:
     parts needing it simply never land there. *)
  let min_positive_axis a =
    List.fold_left
      (fun acc (w : Fpga.Objective.window) ->
        let v = w.hi.(a) in
        if v > 0 then min acc v else acc)
      max_int windows
  in
  let cap_of v = if v = max_int then max_int else max 1 (v / 4) in
  Array.init Hypergraph.demand_arity (fun a -> cap_of (min_positive_axis a))

(* Sweeps per uncoarsening level: the greedy mover's rounds, and the
   finest level's pairwise replication rounds. *)
let level_sweeps = 2

(* The V-cycle: coarsen under the weight caps, run the flat
   heterogeneous-device k-way on the coarsest graph, then project the
   labelling down level by level, refining each level's boundary cells
   with the greedy mover. Functional replication runs once, after the
   finest level: coarse clusters are opaque (every output depends on
   every input), so replication above them has no adjacency slack to
   exploit — the RePart argument. *)
let multilevel_run ~obs ~(options : options) ~library hg =
  let since = clock () in
  let total = Hypergraph.total_area hg in
  let windows =
    List.map (Fpga.Objective.window options.objective)
      (Fpga.Library.devices library)
  in
  let fold_windows op init =
    List.fold_left
      (fun acc (w : Fpga.Objective.window) ->
        op acc (max 1 w.hi.(Fpga.Resource.clb)))
      init windows
  in
  let largest = fold_windows max 1 in
  let smallest = fold_windows min max_int in
  (* Lower bound on the part count (everything on the largest device):
     drives the budget switch below. *)
  let k_est = max 1 ((total + largest - 1) / largest) in
  (* Upper bound (everything on the smallest device): drives the coarsest
     size, because the driver may well choose many small devices (they are
     often the cost-efficient pick under tight IOB windows) and the coarse
     F-M needs ~8 movable clusters per part to hit device windows. *)
  let k_upper = max 1 ((total + smallest - 1) / smallest) in
  let coarsest_target = max 150 (8 * k_upper) in
  (* Net-surface cap: the library's smallest terminal budget bounds how
     much net surface a cluster may accumulate before coarse F-M strands
     outside every device's terminal window — a part assembled from
     clusters cannot cut fewer nets than its clusters' surfaces allow, so
     quality falls off a cliff (2-4x device cost) once surfaces pass
     roughly a tenth of the budget. The divisor is calibrated on the MCNC
     suite against the flat driver: /9 keeps every circuit within 5% of
     flat cost (most below it); /6 already tips s38584 over the cliff.
     Generous terminal budgets (modern multi-thousand-pin parts) leave the
     cap slack, letting coarsening run deep — which is exactly when deep
     coarsening is safe. *)
  let smallest_terminals =
    List.fold_left
      (fun acc (w : Fpga.Objective.window) -> min acc w.max_iobs)
      max_int windows
  in
  let max_nets = max 4 (smallest_terminals / 9) in
  let rng = Netlist.Rng.create options.seed in
  let hier =
    Coarsen.hierarchy ~coarsest:coarsest_target
      ~max_weight:(cluster_caps windows)
      ~max_nets
      ~wrap:(fun d f -> Obs.span obs (Printf.sprintf "coarsen%d" d) f)
      ~should_stop:options.should_stop ~rng hg
  in
  (* A stop seen during coarsening ends the run before the coarse solve,
     and the levels it left unfinished are not reported. *)
  let stopped = options.should_stop () in
  if Obs.enabled obs && not stopped then begin
    let rec emit depth = function
      | [] -> ()
      | (fine, _) :: rest ->
          let coarse =
            match rest with (nf, _) :: _ -> nf | [] -> hier.Coarsen.coarsest
          in
          let fc = Hypergraph.num_cells fine in
          let cc = Hypergraph.num_cells coarse in
          Obs.incr obs "ml.level";
          Obs.observe obs "ml.cells_per_level" fc;
          (* Percentage: the histogram buckets are integer-valued. *)
          Obs.observe obs "ml.coarsen_ratio" (100 * cc / max 1 fc);
          Obs.event obs "ml.coarsen"
            [
              ("level", Obs.Json.Int depth);
              ("fine_cells", Obs.Json.Int fc);
              ("coarse_cells", Obs.Json.Int cc);
            ];
          emit (depth + 1) rest
    in
    emit 0 (List.rev hier.Coarsen.levels);
    Obs.observe obs "ml.cells_per_level"
      (Hypergraph.num_cells hier.Coarsen.coarsest)
  end;
  if stopped then Error cancelled
  else if hier.Coarsen.levels = [] then
    (* Already at coarse scale: the V-cycle adds nothing, run flat. *)
    Split.flat_partition ~budget:flat_budget ~obs ~options ~library hg
  else begin
    (* Coarse-stage budgets. At small k over a well-contracted graph the
       flat budget applies unchanged; when the decomposition is wide
       (large k) or coarsening stalled far from its target (many coarse
       cells per eventual part — dense graphs pin-bound by the cluster
       mask width), the split loop is O(k · n_coarse) per device per
       restart per run, so the search narrows (one run, one restart, two
       candidate devices per split, capped passes) and quality is
       recovered by the per-level refinement below. The switch depends
       only on the device library and the graph — deterministic. The 512
       threshold clears the paper-suite circuits by ~2x (their coarse
       graphs stay under ~260 cells per part), so their budgets — and
       results — are untouched. *)
    let cells_per_part =
      Hypergraph.num_cells hier.Coarsen.coarsest / max 1 k_est
    in
    let coarse_options =
      { options with strategy = Flat; replication = `None }
    in
    let coarse_options, budget =
      if k_est <= 16 && cells_per_part <= 512 then (coarse_options, flat_budget)
      else ({ coarse_options with runs = 1 }, narrowed_budget)
    in
    match
      Split.flat_partition ~budget ~obs ~options:coarse_options ~library
        hier.Coarsen.coarsest
    with
    | Error _ as e -> e
    | Ok coarse_res ->
        (* Each level starts from the coarser level's labelling and
           devices, and the greedy mover moves cells in the level's
           tally, so parts are built once, from the finest level's. *)
        let rec walk idx (coarse_labels, devices) (fine, map) finer =
          if options.should_stop () then Error cancelled
          else
            let labels = Coarsen.project_labels ~map coarse_labels in
            let t = Tally.create fine (Array.length devices) labels in
            match
              Tally.settle_devices ~caller:"Kway.partition" ~options ~library
                ~devices t
            with
            | Error _ as e -> e
            | Ok (iobs, devices) -> (
                let dirty = Hypergraph.boundary fine ~labels in
                (* Span names are part of the benchmark:
                   e2ebench/layers.ml splits "core.partition" by its child
                   spans "coarsen<d>", "run<r>" and "refine<n>", and tells
                   a walk level from the flat solve's winner refinement by
                   the nested "greedy<round>" sweep (and, at the finest
                   level, the replication round's "refine<round>").
                   Renaming any of them (the "refine<n>" clash on the
                   roadmap included) waits for a change that updates the
                   benchmark with it; test_core pins the shape. *)
                let parts =
                  Obs.span obs (Printf.sprintf "refine%d" idx) (fun () ->
                      if Tally.live_parts t >= 2 then
                        Tally.greedy_refine ~opts:options ~obs ~dirty
                          ~rounds:level_sweeps ~labels ~iobs ~devices t;
                      match (finer, options.replication) with
                      | _ :: _, _ -> []
                      | [], `None -> Tally.parts t ~labels ~iobs ~devices
                      | [], `Functional _ ->
                          (* Replication, once: the flat driver's pairwise
                             F-M over the finest boundary, as a warm start
                             refines. *)
                          Pairwise.refine ~opts:options
                            ~passes:flat_budget.passes ~rounds:level_sweeps ~obs
                            ~dirty:(Hypergraph.boundary fine ~labels)
                            (Hypergraph.Flat.of_hypergraph fine)
                            library
                            (Tally.parts t ~labels ~iobs ~devices))
                in
                if Obs.enabled obs then
                  Obs.event obs "ml.refine"
                    [
                      ("level", Obs.Json.Int idx);
                      ("cells", Obs.Json.Int (Hypergraph.num_cells fine));
                      ("dirty", Obs.Json.Int (count_true dirty));
                      ("parts", Obs.Json.Int (Tally.live_parts t));
                    ];
                match finer with
                | [] -> Ok parts
                | next :: finer -> walk (idx + 1) (labels, devices) next finer)
        in
        finish ~since ~should_stop:options.should_stop ~runs:coarse_options.runs
          ~feasible_runs:coarse_res.feasible_runs hg
          (match hier.Coarsen.levels with
          | [] -> Ok coarse_res.parts
          | level :: finer ->
              let labels, _ =
                Warm.labels_of_parts hier.Coarsen.coarsest coarse_res.parts
              in
              walk 0 (labels, devices_of coarse_res.parts) level finer)
  end
