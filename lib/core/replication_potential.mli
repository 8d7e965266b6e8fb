(** Replication potential (Section II of the paper).

    The replication potential [psi] of a cell counts the input pins that
    control exactly one of its outputs (eq. 4):

    {v psi = sum_i | and_{j<>i} ~A_Xj  /\  A_Xi |     (m > 1)
       psi = 0                                        (m = 1) v}

    The higher [psi], the more input nets functional replication can detach
    from a copy, hence the more nets it may remove from a cut. The
    {e threshold replication potential} [T] (eq. 6) restricts replication
    to cells with [psi >= T]; [T = 0] allows every multi-output cell and
    corresponds to the paper's maximum-replication setting. *)

val of_supports : Bitvec.t array -> int
(** [psi] from a cell's per-output adjacency vectors. *)

val of_cell : Hypergraph.cell -> int

val replicable : threshold:int -> Hypergraph.Flat.t -> int -> bool
(** [replicable ~threshold g c]: cell [c] of the engine's flat graph may
    be replicated iff it has several outputs and [psi >= threshold]. *)

(** {1 Distribution (eq. 5, Figure 3)} *)

type distribution = {
  single_output : int;       (** cells with m = 1 (psi = 0 by definition) *)
  multi_by_psi : (int * int) list;
      (** (psi, count) for multi-output cells, ascending psi *)
  total : int;
}

val distribution : Hypergraph.t -> distribution

val max_replication_factor : distribution -> threshold:int -> int
(** [r_T] of eq. (6): the number of cells allowed to replicate at
    threshold [T] (multi-output cells with psi >= T). *)

val pp_distribution : Format.formatter -> distribution -> unit
(** Renders one circuit's bar of Figure 3: share of cells per psi value. *)
