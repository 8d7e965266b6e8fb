(** The multilevel V-cycle. Owns the coarsening budget (cluster weight
    caps, the net-surface cap and the coarsest size, all from the device
    library), the switch to narrowed coarse-solve budgets, and the walk
    back down: one tally per level moved by the greedy mover, parts built
    once at the finest level, replication once after it. *)

val multilevel_run :
  obs:Obs.t ->
  options:Kway_types.options ->
  ml:Kway_types.multilevel ->
  library:Fpga.Library.t ->
  Hypergraph.t ->
  (Kway_types.result, string) Stdlib.result
