(** Device libraries.

    A library is a set of device types a partition may be implemented with;
    any number of each type may be used. The XC3000 library reproduces
    Table I of the paper: capacities and terminal counts are the real
    Xilinx XC3000 values; the price column of the original table is not
    recoverable from the available copy, so prices are reconstructed with
    the qualitative structure the paper relies on (larger devices cheaper
    per CLB, poorer in terminals per CLB).

    The library only lists devices and orders them. Which devices admit a
    partition is a question for the device's window under an objective
    ({!Objective.window}); {!cheapest} is the one scan that answers it. *)

type t = private Device.t array
(** Sorted by ascending capacity. *)

val make : Device.t list -> t
(** Raises [Invalid_argument] on an empty list or duplicate device names. *)

val xc3000 : t
(** Table I: XC3020, XC3030, XC3042, XC3064, XC3090. *)

val xc4000 : t
(** The successor family (XC4003 … XC4013), offered as an alternative
    target for sensitivity studies. Capacities and terminal counts are the
    real XC4000 values; prices are reconstructed on the same principles as
    {!xc3000}. Note the CLB counts are not directly comparable with XC3000
    CLBs (the XC4000 CLB is larger), so use one family per experiment. *)

val devices : t -> Device.t list
val find : t -> string -> Device.t option

val cheapest : t -> (Device.t -> bool) -> Device.t option
(** The cheapest device [accepts] admits, in one scan. Deterministic
    tie-breaking: ties on price go to the smaller capacity, and ties on
    both price and capacity to the lexicographically smaller name — so
    the choice never depends on library construction order. Which
    devices admit a partition under an objective is
    {!Objective.fits}; {!Objective.cheapest} is this scan over it. *)

val largest : t -> Device.t

val by_efficiency : t -> Device.t list
(** Devices sorted by ascending price per CLB (most cost-efficient
    first); ties on price per CLB break by ascending capacity, then name,
    so the order is deterministic regardless of construction order. *)

val min_feasible_cost : t -> clbs:int -> float
(** A lower bound on the cost of hosting [clbs] CLBs: fractional covering
    by the most cost-efficient device, but never below the cheapest single
    device. It is a reporting figure: examples/custom_library.ml prints
    it, and no partitioner phase reads it. It bounds the CLB axis only,
    ignoring terminal budgets and vector resources, so a search should
    not prune with it; the bound the search will read is
    [Objective.lower_bound], planned in ROADMAP item 9. Being a
    [Float.max] of two library-wide minima, the bound is insensitive to
    device order and needs no tie-breaking. *)

val of_json : Obs.Json.t -> (t, string) result
(** Parse a JSON device library. Expected shape:
    {v
    { "name": "my-lib",
      "devices": [
        { "name": "A", "price": 100.0,
          "resources": { "clb": 64, "ff": 128, "io": 64 },
          "res_low":  { "clb": 0.5 },
          "res_high": { "clb": 0.95 } } ] }
    v}
    Axes missing from ["resources"] default to 0 (["clb"] and ["io"]
    required positive); missing window entries default to 0 / 1. The
    scalar form [{ "name", "capacity", "terminals", "price", "util_low",
    "util_high" }] is also accepted and routed through {!Device.make}. *)

val load : string -> (t, string) result
(** Read and {!of_json} a file. *)

val pp : Format.formatter -> t -> unit
(** Renders the library as the paper's Table I. *)
