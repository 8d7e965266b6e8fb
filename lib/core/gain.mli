(** The unified gain model of Section III.

    For a single cell on one side of a bipartition the paper associates
    four binary vectors with the cell's pins:

    - [c_i] / [c_o]: which input / output nets are currently in the cut set;
    - [q_i] / [q_o]: which are {e critical} — one move changes their state
      (a cut net becomes uncut when the cell holds its side's only
      connection; an uncut net becomes cut when the other side has none).

    From these it derives closed forms for the gain of a single move
    (eq. 7), of traditional replication (eq. 8) and of functional
    replication per output (eqs. 9-10), taking the best output (eq. 11).

    The closed forms hold for internal nets (every connection counted by
    the partition state); {!Partition_state.eval} is the exact ground truth
    the partitioner uses, and the test suite checks that the two agree on
    the paper's Fig. 4 example and on random instances without external
    nets. *)

type vectors = {
  c_i : Bitvec.t;
  q_i : Bitvec.t;
  c_o : Bitvec.t;
  q_o : Bitvec.t;
  n_inputs : int;
  n_outputs : int;
}

val vectors : Partition_state.t -> int -> vectors
(** Cut/critical vectors of a cell that currently lives entirely on one
    side. Raises [Invalid_argument] if the cell is replicated (the paper
    defines the closed forms for single cells; replicated cells are scored
    through {!Partition_state.eval}). *)

val single_move : vectors -> int
(** Eq. (7): [G_m = (|c_i & q_i| + |c_o & q_o|) - (|~c_i & q_i| + |~c_o & q_o|)]. *)

val traditional_replication : vectors -> int
(** Eq. (8): [G_tr = (|c_i| + |c_o|) - n]. Traditional replication connects
    the replica to every input net: all output nets leave the cut, all [n]
    input nets end up in it. Implemented for the model comparison of
    Fig. 4; the partitioner itself performs only functional replication. *)

val functional_replication :
  Partition_state.t -> int -> threshold:int -> (int * int) option
(** Eq. (9)-(11) evaluated exactly: the best [(gain, output)] over single
    migrating outputs of a cell, or [None] when the cell may not replicate
    (single output, or [psi < threshold]). Gains are in cut reduction
    (positive = improvement), matching the paper's sign convention. *)

val iter_masks :
  Partition_state.t ->
  replication:[ `None | `Functional of int ] ->
  int ->
  f:(Bitvec.t -> unit) ->
  unit
(** Enumerate the candidate masks of a cell under the configured
    replication mode: whole-cell move; single-output migrations when the
    cell may replicate (threshold from [`Functional t]) or is already
    replicated; and full un-replication to either side when replicated.
    Every mask is produced {e exactly once} (structural collisions are
    excluded at generation, not deduplicated after the fact), the current
    mask is never produced, and the generation order is deterministic:
    complement first, then per-output flips ascending, then
    empty-then-full un-replication. The enumeration itself allocates
    nothing beyond the callback's own work — this is the F-M hot loop's
    candidate source, paired with {!Partition_state.eval_into}. *)

val best_mask_change :
  Partition_state.t ->
  replication:[ `None | `Functional of int ] ->
  int ->
  (Bitvec.t * Partition_state.delta) list
(** The {!iter_masks} candidates with their exact deltas, as a list
    (reverse generation order) — the allocating convenience the tests
    use. The engine, oracle mode included, scores candidates through
    {!iter_masks} instead. *)
