(** The engine's own verifier behind {!Kway.check}. Owns the recount of
    every figure a result records — output coverage, per-part CLBs, IOBs
    and resources, the device test, the summary and the replication
    count — from the hypergraph and the members alone. It calls no
    driver code, so a driver bug cannot make the driver and its verifier
    agree. *)

val check :
  ?objective:Fpga.Objective.t ->
  Hypergraph.t ->
  Kway_types.result ->
  (unit, string) Stdlib.result
