(** Bipartition state with functional replication.

    Every cell's placement is a single bit mask [out_on_b]: the set of its
    outputs currently realised on side [B]. The three situations of the
    paper are all mask values:

    - mask empty: the cell lives entirely on side [A] (a {e single} cell);
    - mask full: entirely on side [B];
    - anything else: the cell is {e functionally replicated} — a copy on
      each side, each copy carrying its mask's outputs and connecting only
      the input nets those outputs depend on (their adjacency vectors).

    That is the one replica-connection rule. A cell whose every output
    depends on every input (an opaque cell, such as a coarsening cluster)
    connects every input to every non-empty copy, so the traditional
    all-inputs rule is a hypergraph, not a mode of this state.

    Moving a cell, creating a replica (one output migrates), adjusting a
    replica's output split, and un-replicating are all "change the mask"
    operations, so the unified gain model of Section III reduces to one
    primitive: {!eval_into} writes the exact cut/terminal/area deltas of a
    mask change, computed in O(cell degree) from per-net side-connection
    counts. The paper's gains are their negation ([- sc_cut]).

    Tracked quantities:
    - [cut]: nets with connections on both sides (external pins do not make
      a net cut — at bipartition level they are already paid for);
    - [terminals s]: nets that would consume an IOB on side [s]: incident to
      [s] and leaving it (to the other side or to an external pin);
    - [area s]: total CLB area of the copies on side [s] (a replicated
      cell pays area on both sides). *)

type side = A | B

val opposite : side -> side

type t

val create : Hypergraph.Flat.t -> init_on_b:(int -> bool) -> t
(** Fresh state over a flat graph ({!Hypergraph.Flat}) with every cell
    single, on the side given by [init_on_b], which is called once per
    cell, in ascending order (so a caller may draw the sides from a random
    stream as they are asked for). The state reads the graph, never
    copies it: a state over a carved graph is valid until that graph's
    buffer is carved into again. *)

val create_with_masks : Hypergraph.Flat.t -> masks:(int -> Bitvec.t) -> t
(** Fresh state with an arbitrary initial output assignment: [masks c] is
    the set of cell [c]'s outputs starting on side [B] (so cells may start
    replicated). Raises [Invalid_argument] if a mask exceeds the cell's
    outputs. *)

val reuse : t -> Hypergraph.Flat.t -> init_on_b:(int -> bool) -> t
(** [reuse old g ~init_on_b] is {!create}[ g ~init_on_b], built in the
    arrays of a retired state: the same masks and counters, by the same
    count. [old] must not be used again, since the result shares (and has
    overwritten) its arrays; a caller keeps a free list of retired states
    and hands each to one [reuse]. The arrays are taken only when they
    are long enough for [g] (cells, nets and the largest cell degree),
    so a state sized for the largest graph of a run serves every smaller
    one; otherwise this is {!create} and [old] is dropped. As in
    {!create}, [init_on_b] is called once per cell, in ascending order.
    A carve buffer ({!Hypergraph.Flat.carve}) follows the same rule: a
    run recycles both, and neither outlives its next rebuild. *)

val reuse_with_masks : t -> Hypergraph.Flat.t -> masks:(int -> Bitvec.t) -> t
(** {!reuse} for {!create_with_masks}, with the same contract. *)

val graph : t -> Hypergraph.Flat.t

(** {1 Observations} *)

val mask : t -> int -> Bitvec.t
(** Current [out_on_b] mask of a cell. *)

val full_mask : t -> int -> Bitvec.t
(** The all-outputs mask of a cell. *)

val is_replicated : t -> int -> bool
val num_replicated : t -> int
val cut : t -> int
val terminals : t -> side -> int
val area : t -> side -> int

val resource : t -> side -> int -> int
(** [resource t s a] — total demand on axis [a] (of
    [Hypergraph.demand_arity]) of the copies on side [s]; axis 0
    restates {!area}. Replication semantics match area: a replicated
    cell pays its full demand on both sides. O(1), allocation-free. *)

val resources : t -> side -> int array
(** All demand axes of a side as a fresh array of length
    [Hypergraph.demand_arity]. *)

val side_copies : t -> side -> (int * Bitvec.t) list
(** Cells present on a side with the output mask their copy carries there
    (relative to the cell's own output numbering). *)

val carve : t -> side -> into:Hypergraph.Flat.t -> unit
(** [carve t s ~into] carves the copies on side [s] (the cells of
    {!side_copies}, in ascending order) out of the state's graph into
    the buffer [into] ({!Hypergraph.Flat.carve}), staging each copy
    straight from the state's masks. *)

val single_side : t -> int -> side option
(** [Some s] when the cell is entirely on [s]. *)

val connections : t -> side -> int -> int
(** [connections t s n] — number of cell copies connected to net [n] on
    side [s] (the per-net counters behind cut and terminal tracking). *)

(** {1 Mask changes} *)

type scratch = {
  mutable sc_cut : int;
  mutable sc_term_a : int;
  mutable sc_term_b : int;
  mutable sc_area_a : int;
  mutable sc_area_b : int;
  sc_res_a : int array;
  sc_res_b : int array;
      (** per-axis demand deltas, length [Hypergraph.demand_arity];
          slot 0 restates [sc_area_a]/[sc_area_b] *)
}
(** A caller-owned mutable delta, so evaluation loops need not allocate
    (the F-M hot path evaluates one candidate per affected neighbour per
    applied move). The resource slots are fixed arrays written in place,
    so vector-aware objectives ride the same allocation-free path. *)

val make_scratch : unit -> scratch

val eval_into : t -> int -> Bitvec.t -> scratch -> unit
(** [eval_into t c m out] — the exact effect of setting cell [c]'s mask
    to [m], without applying it, written into [out]: the change of
    {!cut}, of {!terminals} and {!area} on each side, and of each
    {!resource} axis. Setting the current mask writes zeros. The one
    delta evaluation; allocation-free. Raises [Invalid_argument] if [m]
    is not a subset of {!full_mask}. *)

val apply : t -> int -> Bitvec.t -> unit
(** Commit a mask change: the counters shift by exactly the delta
    {!eval_into} would have written, so read them (or call {!eval_into}
    first) for the delta. Allocation-free, as F-M applies and rolls back
    one per move. Additionally records the set of {e state-changed} nets
    for {!iter_changed_nets}. *)

val iter_changed_nets : t -> (int -> unit) -> unit
(** The nets whose per-side connection category [min (count, 2)] changed
    in the last {!apply} — i.e. a side count crossed a critical boundary
    (0↔1 or 1↔2). Candidate deltas of a cell depend on an incident net's
    side counts only through these categories (any single-cell mask change
    shifts each count by at most one, and every per-net cut/terminal
    contribution tests counts against 0 over that ±1 neighbourhood), so a
    cell none of whose incident nets appear here keeps its best op
    verbatim. This is the completeness fact behind F-M's
    criticality-filtered incremental rescoring; the set is valid until the
    next {!apply} on the same state and iterates in ascending net order. *)

(** {1 Verification support} *)

val recompute : t -> int * int * int * int * int
(** [(cut, term_a, term_b, area_a, area_b)] recomputed from scratch, by
    the same count that fills a fresh state. *)

val check_consistency : t -> (unit, string) result
(** Compare the incrementally maintained counters against {!recompute};
    used by the property-based tests after random operation sequences. *)
