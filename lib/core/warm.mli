(** Incremental repartitioning. Owns how a finished partition becomes a
    seed for an edited hypergraph (one label per cell, replicated cells
    forced dirty) and how the seed becomes a result: unlabelled cells
    seeded by net affinity, then pairwise refinement restricted to the
    dirty cells, one round. *)

val labels_of_parts :
  Hypergraph.t -> Kway_types.part list -> int array * bool array

type warm = {
  w_labels : int array;
  w_dirty : bool array;
  w_devices : Fpga.Device.t array;
}

val project_warm :
  base:Hypergraph.t ->
  base_parts:Kway_types.part list ->
  Hypergraph.t ->
  warm * Projection.t

val warm_start :
  ?obs:Obs.t ->
  ?options:Kway_types.options ->
  library:Fpga.Library.t ->
  warm:warm ->
  Hypergraph.t ->
  (Kway_types.result, string) Stdlib.result
