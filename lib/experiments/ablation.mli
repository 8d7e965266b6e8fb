(** Ablations of the design choices DESIGN.md calls out.

    1. {e Functional vs traditional replication} (Section II's motivating
       comparison, Figs. 1 and 4): the same staged F-M with the replica
       connection rule switched between the paper's adjacency-vector model
       and the all-inputs Kring-Newton model. The paper's claim to verify:
       traditional replication buys little because mapped cells have many
       inputs per output, while functional replication keeps winning.

    2. {e CLB output pairing}: mapping with pairing disabled produces only
       single-output cells, which by eq. (4) all have psi = 0 — functional
       replication then degenerates to no replication. This isolates how
       much of the method's power comes from the multi-output cells the
       mapper creates. *)

type repl_row = {
  name : string;
  plain_best : int;        (** staged F-M, no replication *)
  traditional_best : int;  (** + traditional replication, T = 0 *)
  functional_best : int;   (** + functional replication, T = 0 *)
}

val replication_model : ?runs:int -> ?seed:int -> Suite.entry -> repl_row
val pp_replication_model : Format.formatter -> repl_row list -> unit

type pairing_row = {
  name : string;
  paired_clbs : int;
  unpaired_clbs : int;
  paired_r0 : int;          (** replicable cells (r_0) with pairing *)
  unpaired_r0 : int;        (** ... without pairing (always 0) *)
  paired_plain_cut : int;   (** no-replication cut on the paired mapping *)
  paired_repl_cut : int;    (** functional-replication cut, paired mapping *)
  unpaired_plain_cut : int; (** no-replication cut, unpaired mapping *)
  unpaired_repl_cut : int;  (** replication changes nothing here: r_0 = 0 *)
}

val pairing : ?runs:int -> ?seed:int -> Suite.entry -> pairing_row
val pp_pairing : Format.formatter -> pairing_row list -> unit

(** {1 Multilevel initialisation (extension C)}

    Flat F-M (the paper's 1994 setting) versus the multilevel
    coarsen-partition-refine scheme that later became standard
    ({!Core.Coarsen}), with and without functional replication on top. *)

type multilevel_row = {
  name : string;
  flat_plain : int;
  ml_plain : int;
  flat_repl : int;
  ml_repl : int;
}

val multilevel_init :
  rng:Netlist.Rng.t -> Core.Fm.config -> Hypergraph.t -> Partition_state.t
(** An initial bipartition of the fine hypergraph by the multilevel
    scheme: {!Core.Coarsen.hierarchy} with its defaults, random halves of
    the coarsest graph, F-M there, then project and F-M-refine level by
    level with the given config. Coarse cells are opaque clusters, so the
    config should not replicate. The returned state belongs to the
    original hypergraph and is ready for {!Core.Fm.run} or
    {!Core.Fm.run_staged}. *)

val multilevel : ?runs:int -> ?seed:int -> Suite.entry -> multilevel_row
val pp_multilevel : Format.formatter -> multilevel_row list -> unit
