(** The paper's recursive heterogeneous-device driver (Section IV). Owns
    how a remainder is split: the candidate devices tried per step, the
    F-M restarts per device and how they are drawn, the split ranked by
    local cost efficiency, and the multi-start runs with their RNG
    streams, forked sinks and winner tie-break — so [jobs] never changes
    a result. [budget] sets the F-M passes, the restarts and the
    candidate devices per step. The winner gets one round of
    {!Pairwise.refine}.

    The runs and the refinement share one flat form of the hypergraph
    ({!Hypergraph.Flat.of_hypergraph}), read-only; each run carves its
    remainders into two buffers of its own, alternately
    ({!Partition_state.carve}). *)

val flat_partition :
  budget:Kway_types.budget ->
  obs:Obs.t ->
  options:Kway_types.options ->
  library:Fpga.Library.t ->
  Hypergraph.t ->
  (Kway_types.result, string) Stdlib.result
