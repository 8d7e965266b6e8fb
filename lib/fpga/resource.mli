(** Fixed-arity resource vectors.

    A resource vector generalises the paper's scalar (CLB, IOB) pair to
    the heterogeneous-device setting (Gregerson's multi-personality
    model): one slot per on-chip resource class. The representation is a
    bare [int array] of length {!arity} so the partitioner's hot path can
    read and update totals allocation-free; every operation below that
    takes a destination array mutates in place.

    Axis conventions:
    - slot {!clb} is the {e primary} axis — it is the paper's CLB count
      and doubles as the cell "area" the balance condition is written
      against;
    - slot {!io} is net-derived (terminals of a partition), never part of
      a cell's demand;
    - cells therefore carry demand vectors over the first {!demand_arity}
      axes only ([clb], [ff], [bram], [dsp]).

    [demand_arity] must stay equal to [Hypergraph.demand_arity]
    (hypergraph_lib cannot depend on this library, so the constant is
    duplicated and pinned by a test). *)

type t = int array

val arity : int
(** Number of axes (5). *)

val demand_arity : int
(** Number of axes a cell demand vector may use (4: [clb], [ff], [bram],
    [dsp]); the [io] axis is derived from nets, not summed from cells. *)

val clb : int
val ff : int
val bram : int
val dsp : int
val io : int

val axis_name : int -> string
(** ["clb"], ["ff"], ["bram"], ["dsp"], ["io"]. *)

val axis_of_name : string -> int option

val zero : unit -> t
(** Fresh all-zero vector of length {!arity}. *)

val make : ?ffs:int -> ?brams:int -> ?dsps:int -> clbs:int -> iobs:int -> unit -> t
(** Full-arity vector; omitted axes default to 0. *)

val get : t -> int -> int
(** Zero-extended read: [get v a] is [v.(a)] when in range, else 0.
    Accepts vectors shorter than {!arity} (cell demands). *)

val add_into : t -> t -> unit
(** [add_into dst src]: [dst.(a) <- dst.(a) + get src a] for every axis
    of [dst]. Allocation-free. *)

val sub_into : t -> t -> unit
(** Pointwise subtraction, same conventions as {!add_into}. *)

val covers : cap:t -> t -> bool
(** [covers ~cap v]: [get cap a >= get v a] on every axis of either
    vector. Allocation-free. *)
