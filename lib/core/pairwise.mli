(** Pairwise refinement of finished parts. Owns how a part pair is chosen
    (shared nets, most-connected first, capped at 4k pairs a round) and
    how one pair is re-bipartitioned: the union of the pair's copies,
    carved out of the flat graph into the call's one union buffer
    ({!Hypergraph.Flat.carve}), F-M on it under both device windows on
    total terminals, and right-sizing of both devices after an
    improvement. [rounds] sweeps run, each pair's F-M given [passes] (at
    most 4 on a graph of more than 16,384 nets).

    The graph is the flat form of the hypergraph the parts partition:
    the domain's root ({!Kway_types.with_root}), which the split driver
    shares with its runs. Each pair is refined in the refine kit of the
    executing domain ({!Parallel.Slot}): one F-M state, rebuilt in place
    for each pair's union ({!Partition_state.reuse}), the union's carve
    buffer, and two cell-indexed mask arrays, all-empty between pairs.
    The kit outlives the call and the job, sized for the largest graph
    the domain has refined. *)

val refine :
  opts:Kway_types.options ->
  passes:int ->
  rounds:int ->
  obs:Obs.t ->
  ?dirty:bool array ->
  Hypergraph.Flat.t ->
  Fpga.Library.t ->
  Kway_types.part list ->
  Kway_types.part list
