(** The paper's recursive heterogeneous-device driver (Section IV). Owns
    how a remainder is split: the candidate devices tried per step, the
    F-M restarts per device and how they are drawn, the split ranked by
    local cost efficiency, and the multi-start runs with their RNG
    streams, forked sinks and winner tie-break — so [jobs] never changes
    a result. The winner gets {!Pairwise.refine}. *)

val flat_partition :
  ?device_limit:int ->
  obs:Obs.t ->
  options:Kway_types.options ->
  library:Fpga.Library.t ->
  Hypergraph.t ->
  (Kway_types.result, string) Stdlib.result
