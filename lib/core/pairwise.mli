(** Pairwise refinement of finished parts. Owns how a part pair is chosen
    (shared nets, most-connected first, capped at 4k pairs a round) and
    how one pair is re-bipartitioned: an induced copy of the pair's cells
    under both device windows, F-M on total terminals, and right-sizing
    of both devices after an improvement. [rounds] sweeps run, each
    pair's F-M given [passes] (at most 4 on a graph of more than 16,384
    nets). *)

val refine :
  opts:Kway_types.options ->
  passes:int ->
  rounds:int ->
  obs:Obs.t ->
  ?dirty:bool array ->
  Hypergraph.t ->
  Fpga.Library.t ->
  Kway_types.part list ->
  Kway_types.part list
