(** Hypergraph model of a mapped circuit, following Section II of the paper:
    [H = ({X; Y}, E)] with interior cells [X], terminals [Y] and nets [E].

    Cells carry per-output {e adjacency vectors} (the input-pin support of
    each output), the information functional replication exploits. Nets
    record which cells touch them; terminals are not materialised as nodes —
    a net that reaches a chip-level I/O pad or, during recursive
    partitioning, a cell of an already-fixed partition, is flagged
    {e external}. *)

val demand_arity : int
(** Maximum length of a cell demand vector (4). Slot 0 is the primary
    (CLB/area) axis; further slots are opaque resource classes the
    [fpga] layer interprets (FF, BRAM, DSP — pinned to
    [Fpga.Resource.demand_arity] by a test, since that library sits
    above this one). *)

type cell = private {
  id : int;               (** dense index *)
  name : string;
  area : int;             (** CLBs one copy of this cell occupies
                              (= [demand.(0)], cached) *)
  demand : int array;
      (** per-resource demand of one copy; length in
          [1..demand_arity], [demand.(0) = area]. Missing axes read
          as 0. Never mutate it. *)
  inputs : int array;     (** net id per input pin *)
  outputs : int array;    (** net id per output pin; the cell drives these *)
  supports : Bitvec.t array;
      (** [supports.(o)] = input pins output [o] depends on; the adjacency
          vector [A_{X_o}] of the paper. *)
  full_nets : int array;
      (** the distinct incident nets (inputs + outputs), ascending;
          filled by {!create} *)
}
(** A cell as built: coarsening, the k-way tally, projection and the
    verifier read it. The bipartition engine reads the {!Flat} form. *)

type t = private {
  cells : cell array;
  num_nets : int;
  net_cells : int array array;
      (** [net_cells.(n)] = ids of cells touching net [n], deduplicated *)
  net_external : bool array;
      (** net reaches outside this hypergraph (chip pad or fixed partition) *)
  net_names : string array;
}

(** {1 Construction} *)

type cell_spec = {
  s_name : string;
  s_area : int;
  s_demand : int array;
      (** per-resource demand; [[||]] defaults to [[| s_area |]],
          otherwise [s_demand.(0)] must equal [s_area] and the length
          must not exceed {!demand_arity} *)
  s_inputs : int array;
  s_outputs : int array;
  s_supports : Bitvec.t array;
}

val create :
  ?net_names:string array ->
  num_nets:int ->
  external_nets:int list ->
  cell_spec list ->
  t
(** Build and validate a hypergraph. Raises [Invalid_argument] when a net id
    is out of range, a support mask refers to a missing input pin, two cells
    drive the same net, or a support is empty while the cell has inputs
    (every output must depend on at least one input unless the cell has no
    input pins at all). *)

(** {1 Accessors} *)

val num_cells : t -> int
val cell : t -> int -> cell
val total_area : t -> int

val total_demand : t -> int array
(** Element-wise sum of all cell demand vectors, zero-extended to length
    {!demand_arity}; [(total_demand h).(0) = total_area h]. *)

val max_cell_degree : t -> int
(** Maximum number of distinct nets incident to one cell. *)

val cell_nets : cell -> int array
(** Distinct nets incident to a full copy of the cell (inputs + outputs),
    ascending. This is the cell's shared memo [full_nets], not a fresh
    array: callers must not mutate it. *)

val connected_nets : cell -> out_mask:Bitvec.t -> int array
(** Distinct nets a {e partial} copy of the cell touches when it carries
    exactly the outputs in [out_mask]: those output nets plus the input nets
    in the union of their supports, ascending. [out_mask = empty] yields
    [\[||\]]; the full mask yields the shared {!cell_nets} memo (do not
    mutate); any other mask a fresh array, recounted from the cell's
    [inputs], [outputs] and [supports]. *)

val input_support : cell -> Bitvec.t -> Bitvec.t
(** [input_support c m] — the input pins a copy carrying the outputs in
    [m] depends on: the union of their supports. Allocation-free. *)

val pins : t -> int
(** Total pin count (all cell input and output pins). *)

val boundary : t -> labels:int array -> bool array
(** [boundary h ~labels] flags every cell incident to a net whose cells
    carry at least two distinct labels — the cells whose moves can change
    the cut of the labelling. Cells on single-label (internal) nets only
    are left unflagged, external or not: an external net touched by one
    part costs the same IOB wherever that part's cells sit. O(pins) time;
    the returned flag array is its only allocation. *)

val validate : t -> (unit, string) result

type hypergraph = t

(** {1 The engine's flat form} *)

(** The bipartition engine's graph: one CSR (compressed sparse row)
    incidence in flat arrays, the form {!Partition_state}, F-M, the k-way
    split and the pair refiner read. It is built once from a {!t} by
    {!Flat.of_hypergraph}; every graph the split and the refiner derive
    from it (a remainder after a device is carved off, the union of two
    parts) is {e carved} flat-to-flat into a buffer the caller owns and
    recycles, with no per-cell record, list or hash table. *)
module Flat : sig
  type t = private {
    frozen : bool;
        (** built by {!of_hypergraph}: read-only, never a carve target *)
    mutable num_cells : int;  (** live cells *)
    mutable num_nets : int;   (** live nets *)
    mutable max_degree : int;
        (** the most distinct nets one cell touches (0 without cells) *)
    mutable cell_off : int array;
        (** cell [c]'s incidences are the slots
            [cell_off.(c) .. cell_off.(c + 1) - 1] of the three arrays
            below *)
    mutable inc_net : int array;
        (** the cell's distinct nets, ascending *)
    mutable inc_in : Bitvec.t array;
        (** the cell's input pins wired to that net *)
    mutable inc_out : Bitvec.t array;
        (** the cell's output pins driving that net. A copy carrying
            outputs [m] touches the net of incidence [k] iff [m] meets
            [inc_out.(k)] or [input_support g c m] meets [inc_in.(k)]:
            the delta kernel scans a cell's incidences once and
            allocates nothing, whatever the cell's width. *)
    mutable outputs : int array;  (** output count per cell *)
    mutable inputs : int array;   (** input count per cell *)
    mutable sup_off : int array;
        (** output [o]'s support (adjacency vector) is
            [supports.(sup_off.(c) + o)] *)
    mutable supports : Bitvec.t array;
    mutable area : int array;
    mutable demand : int array;
        (** [demand.(c * demand_arity + a)]: axis [a] of one copy's
            demand, zero-extended *)
    mutable net_off : int array;
        (** net [n]'s cells are
            [net_cell.(net_off.(n)) .. net_cell.(net_off.(n + 1) - 1)],
            ascending *)
    mutable net_cell : int array;
    mutable net_external : bool array;
        (** net reaches outside this graph (chip pad, fixed partition, or
            a copy carved away) *)
    mutable origin_cell : int array;
    mutable origin_mask : Bitvec.t array;
        (** cell [c] is the copy of cell [origin_cell.(c)] of the
            {!of_hypergraph} graph it descends from, carrying that
            cell's outputs [origin_mask.(c)] *)
    mutable staged : int;
    mutable spec_cell : int array;
    mutable spec_mask : Bitvec.t array;
    mutable net_map : int array;
    mutable kept : Bitvec.t array;
        (** a buffer's staged copies and carve scratch: not graph data *)
  }
  (** Only the first [num_cells] (cells), [num_nets] (nets) and
      [cell_off.(num_cells)] (incidences) slots are live: a buffer's
      arrays keep the length of the largest graph carved into it, so a
      stale tail may follow the live prefix. *)

  val of_hypergraph : hypergraph -> t
  (** The flat form of a hypergraph, frozen: cells, nets and each cell's
      nets in the hypergraph's order, every cell its own whole origin. It
      shares [net_external] with the hypergraph. Domains may read one
      concurrently. *)

  val buffer : unit -> t
  (** An empty carve target, holding the empty graph. *)

  val num_cells : t -> int
  val num_nets : t -> int
  val total_area : t -> int

  val total_demand : t -> int array
  (** As {!Hypergraph.total_demand}: a fresh array of length
      {!demand_arity}. *)

  val input_support : t -> int -> Bitvec.t -> Bitvec.t
  (** As {!Hypergraph.input_support}, for cell [c] of the flat graph. *)

  val stage : t -> cell:int -> Bitvec.t -> unit
  (** [stage b ~cell m] appends the copy [(cell, m)] to the specs of the
      next {!carve} into buffer [b]: the copy of the parent's cell [cell]
      carrying its outputs [m]. Staging leaves the graph [b] holds
      intact. Raises [Invalid_argument] on a frozen graph. *)

  val carve : t -> into:t -> unit
  (** [carve p ~into:b] replaces the graph of buffer [b] by the graph of
      the copies staged in [b], cut out of [p], and clears the staged
      specs. It equals the list-built induced copy it replaced, slot for
      slot:
      - copy [j] is the [j]-th staged spec; it carries exactly the
        outputs of its mask and the input pins their supports name,
        partial copies' pins renumbered densely in ascending order;
      - nets are numbered in first-touch order: copy by copy in spec
        order, each copy's nets in ascending parent order;
      - each cell's nets ascend, and each net's cells ascend;
      - a net is external when it was external in [p] or when some
        incidence of [p] is not covered by the kept copies (e.g. the
        other copy of a replicated cell);
      - [max_degree] is the result's largest cell degree;
      - [origin_*] compose [p]'s: a copy's origin is its spec's origin
        restricted to the copy's outputs.

      Lifetime: the carved graph lives in [b]'s arrays, so it is valid
      until [b]'s next carve, which overwrites it (as
      {!Partition_state.reuse} overwrites a retired state); a state or
      graph read after that reads the next graph. [b] must not be [p]'s
      own buffer, and a buffer never crosses domains: one run owns it,
      other domains may only read its graph between carves. Beyond [b]'s
      arrays, which grow (at least doubling) only when a graph is larger
      than every earlier one, a carve allocates nothing.

      Raises [Invalid_argument] (leaving [b]'s graph intact) on an
      out-of-range cell id, an empty or out-of-range mask, a duplicate
      cell, a frozen [b] or [b == p]. *)
end
