(** The paper's recursive heterogeneous-device driver (Section IV). Owns
    how a remainder is split: the candidate devices tried per step, the
    F-M restarts per device and how they are drawn, the split ranked by
    local cost efficiency, and the multi-start runs with their RNG
    streams, forked sinks and winner tie-break — so [jobs] never changes
    a result. [budget] sets the F-M passes, the restarts and the
    candidate devices per step. The winner gets one round of
    {!Pairwise.refine}.

    The runs and the refinement share one flat form of the hypergraph,
    read-only: the executing domain's root ({!Kway_types.with_root}).
    Each run works in the run kit of the domain it runs on
    ({!Parallel.Slot}): a free list of retired F-M states, rebuilt in
    place for each restart ({!Partition_state.reuse}), and two buffers
    its remainders are carved into, alternately
    ({!Partition_state.carve}). The kit outlives the run and the job, so
    a domain running many jobs sizes it once, for the largest graph it
    has run; restarts on the pool's domains take their states from the
    run's kit. *)

val flat_partition :
  budget:Kway_types.budget ->
  obs:Obs.t ->
  options:Kway_types.options ->
  library:Fpga.Library.t ->
  Hypergraph.t ->
  (Kway_types.result, string) Stdlib.result
