(** Ablations of the design choices DESIGN.md calls out.

    1. {e Functional vs traditional replication} (Section II's motivating
       comparison, Figs. 1 and 4): the same staged functional F-M on the
       mapped hypergraph and on its {!traditional} form, where every
       replica connects every input (the Kring-Newton model the paper's
       eq. 8 scores). The paper's claim to verify:
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

val traditional : Hypergraph.t -> Hypergraph.t
(** [traditional h] — [h] with every output's support widened to all of
    its cell's inputs: the opaque shape of a coarsening cluster. Nets,
    pins, areas, demands, external flags, names and cell order are
    unchanged. Functional replication on the result connects every
    non-empty copy to every input net, which is traditional replication.

    It models traditional replication only at threshold [T = 0]: the
    replication potential psi of a widened multi-output cell is 0, so a
    threshold above 0 would bar its replicas, while [T = 0] admits every
    multi-output cell on either hypergraph. *)

val replication_model : ?runs:int -> ?seed:int -> Suite.entry -> repl_row
(** Ablation A: best equal-halves cut over [runs] random starts (seed
    [seed + r * 65537]) without replication, with functional replication
    at [T = 0] on {!traditional}, and with it at [T = 0] on the mapped
    hypergraph. *)

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
