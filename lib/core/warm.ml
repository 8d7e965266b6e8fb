open Kway_types

(* Flatten a finished partition to one label per cell, for projection
   onto an edited hypergraph. A replicated cell appears in several parts;
   its label is the part driving the most outputs (first such part at
   ties), and the cell is flagged so the caller can mark it dirty — the
   warm start then re-decides its replication instead of trusting a
   single inherited label. *)
let labels_of_parts hg parts =
  let n = Hypergraph.num_cells hg in
  let labels = Array.make n (-1) in
  let best_norm = Array.make n (-1) in
  let appearances = Array.make n 0 in
  List.iteri
    (fun j p ->
      List.iter
        (fun (c, m) ->
          appearances.(c) <- appearances.(c) + 1;
          let norm = Bitvec.norm m in
          if norm > best_norm.(c) then begin
            best_norm.(c) <- norm;
            labels.(c) <- j
          end)
        p.members)
    parts;
  (labels, Array.map (fun k -> k > 1) appearances)

type warm = {
  w_labels : int array;
  w_dirty : bool array;
  w_devices : Fpga.Device.t array;
}

(* The warm seed of an edit: the base partition's labelling projected
   onto the edited hypergraph, with every replicated base cell forced
   dirty so the warm start re-decides its replication. *)
let project_warm ~base ~base_parts edited =
  let base_labels, base_dirty = labels_of_parts base base_parts in
  let proj = Projection.project ~base ~base_labels ~base_dirty edited in
  ( {
      w_labels = proj.Projection.labels;
      w_dirty = proj.Projection.dirty;
      w_devices = devices_of base_parts;
    },
    proj )

let warm_start ?(obs = Obs.noop) ?(options = Options.default) ~library ~warm hg
    =
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let since = clock () in
  let n = Hypergraph.num_cells hg in
  let k = Array.length warm.w_devices in
  if Array.length warm.w_labels <> n then
    err "Kway.warm_start: labels cover %d cells, hypergraph has %d"
      (Array.length warm.w_labels) n
  else if Array.length warm.w_dirty <> n then
    err "Kway.warm_start: dirty flags cover %d cells, hypergraph has %d"
      (Array.length warm.w_dirty) n
  else if k = 0 then err "Kway.warm_start: empty device array"
  else if Array.exists (fun l -> l >= k) warm.w_labels then
    err "Kway.warm_start: label out of range (only %d devices)" k
  else begin
    let labels = Array.copy warm.w_labels in
    let dirty = Array.copy warm.w_dirty in
    let windows =
      Array.map (Fpga.Objective.window options.objective) warm.w_devices
    in
    let t, seeded = Tally.seed_unlabelled hg ~windows labels dirty in
    (* Refine only inside the edit's blast radius, one round: refinement
       is the entire optimisation a warm start performs. *)
    let outcome =
      Result.map
        (fun parts ->
          Obs.span obs "warm" (fun () ->
              Pairwise.refine ~opts:options ~passes:flat_budget.passes
                ~rounds:1 ~obs ~dirty
                (Hypergraph.Flat.of_hypergraph hg)
                library parts))
        (Tally.materialise ~caller:"Kway.warm_start" ~options ~library ~labels
           ~devices:warm.w_devices t)
    in
    let result =
      finish ~since ~should_stop:options.should_stop ~runs:1 ~feasible_runs:1
        hg outcome
    in
    (match result with
    | Ok r when Obs.enabled obs ->
        let dirty_cells = count_true dirty in
        Obs.incr obs "kway.warm_starts";
        Obs.observe obs "kway.warm_seeded_cells" seeded;
        Obs.observe obs "kway.warm_dirty_cells" dirty_cells;
        Obs.event obs "kway.warm"
          [
            ("seeded", Obs.Json.Int seeded);
            ("dirty", Obs.Json.Int dirty_cells);
            ("parts", Obs.Json.Int r.summary.Fpga.Cost.num_partitions);
            ("total_cost", Obs.Json.Float r.summary.Fpga.Cost.total_cost);
            ("total_iobs", Obs.Json.Int r.summary.Fpga.Cost.total_iobs);
          ]
    | _ -> ());
    result
  end
