(** 4-input LUT covering.

    Covers a decomposed circuit (gates of fanin <= 2) with lookup tables of
    at most [k] inputs, using greedy maximal fanout-free cone packing: a
    gate is absorbed into its reader's cone when all of its fanouts lie
    inside the cone and the cone support stays within [k]. No logic is
    duplicated; unreferenced (dead) logic disappears. *)

type lut = {
  root : int;            (** node id in the decomposed circuit *)
  support : int array;   (** source node ids the table reads, in pin order;
                             each is a primary input, flip-flop, constant
                             node, or another LUT's root *)
  table : int;           (** truth table: bit [sum_i v_i 2^i] = output *)
  cone_size : int;       (** gates folded into this LUT *)
}

val eval_lut : lut -> bool array -> bool
(** Evaluate a table on pin values (in [support] order). *)

val insertion_sort : int array -> unit
(** Sort a short array (a LUT support or a CLB slot's nets, at most
    [Mapped.max_inputs] ids) in place, ascending. It allocates nothing,
    where a library sort allocates its closures on every call. *)

type cover = {
  luts : lut array;
  lut_of_root : int array;  (** node id -> index into [luts], or -1 *)
}

val run : ?k:int -> Netlist.Circuit.t -> cover
(** [k] defaults to 4 (XC3000) and must lie in [1 .. Mapped.max_inputs]
    (5): a table over [k] pins has [2^k] bits, and a CLB has five input
    pins. Raises [Invalid_argument] for a [k] outside that range, or if
    the circuit has a combinational gate with more than [k] fanins
    (decompose first) — such a gate could not be covered.

    Roots are visited in reverse topological order. Each cone grows one
    support node at a time, absorbing the candidate that leaves the
    smallest support within [k]. Ties go to the candidate with the lowest
    [Hashtbl.hash f land 15], then to the most recently added to the
    support: the order in which the first definition's 16-bucket hash
    table happened to visit them. The rule uses the unseeded
    [Hashtbl.hash], so the cover does not depend on [OCAMLRUNPARAM=R] or
    [Hashtbl.randomize]. Tables are computed bit-parallel, one bitwise
    operation per cone gate input. *)
