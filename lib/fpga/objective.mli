(** Pluggable cost objectives.

    The paper minimises total device cost (eq. 1) with average IOB
    utilization (eq. 2) as the interconnect tie-breaker; every other cost
    model the partitioner supports differs only in how a device and a cut
    net are priced and in which feasibility test a partition must pass.
    An objective packages those choices as a record of closures so the
    k-way driver stays objective-agnostic.

    The paper objective is the identity element of the design: its
    [net_cost] is the constant [0.0] and its feasibility mode is
    {!Primary}, so every total it contributes to is the same float the
    scalar code path computed ([x +. 0.0 = x] for the finite positive
    prices involved) — bit-identical results, enforced by the golden
    telemetry cases of [test/test_contracts.ml]. Every device test the
    partitioner makes goes through {!fits}, {!cheapest} and {!res_max},
    so the feasibility mode is read nowhere else. *)

type fm_objective = [ `Cut | `Terminals ]
(** Which quantity the F-M engine minimises (mirrors [Fm.objective];
    [lib/fpga] sits below [lib/core] so the variant is structural). *)

type feasibility =
  | Primary
      (** The paper's scalar test: CLB window + terminal budget only
          ({!Device.fits}). Exactly the pre-redesign behaviour. *)
  | Vector
      (** Per-axis feasibility ({!Device.fits_demand}): every resource
          axis of a partition's demand must land in the device's window.
          During F-M the secondary axes are soft penalties (like the
          terminal budget already is), so the hot loop stays
          allocation-free. *)

type t = {
  name : string;
  description : string;
  device_cost : Device.t -> float;
      (** Price of using one instance of a device. *)
  net_cost : nets:int -> float;
      (** Interconnect cost of [nets] cut (partition-external) signals;
          added to device totals when ranking candidate devices and
          k-way solutions. *)
  split_objective : fm_objective;
      (** F-M objective while carving one partition out of the rest. *)
  refine_objective : fm_objective;
      (** F-M objective during pairwise post-refinement. *)
  feasibility : feasibility;
}

val paper : t
(** ["paper"]: eq. (1) device cost, zero net cost, cut-driven split,
    terminal-driven refinement, primary feasibility. The default, and
    bit-identical to the pre-objective scalar code path. *)

val multi_personality : t
(** ["multi-personality"]: Gregerson's heterogeneous-resource model —
    same device pricing as the paper, but {!Vector} feasibility so FF /
    BRAM / DSP demand constrains placement alongside CLBs. *)

val chiplet : t
(** ["chiplet"]: ChipletPart-style 2.5D model — every cut signal crosses
    the interposer and carries {!chiplet_net_cost}, so both F-M stages
    minimise terminals and solution ranking pays for interconnect. *)

val chiplet_net_cost : float
(** Interposer cost per crossing signal, in the same reconstructed
    dollars as the device prices (2.0). *)

val builtins : t list
(** [paper; multi_personality; chiplet]. *)

val names : string list

val of_name : string -> (t, string) result
(** Look up a builtin by [name]; the error lists valid names. *)

(** {2 Feasibility}

    The one place that decides which device test a partition must pass
    under an objective. [demand] is the partition's demand vector
    ([demand.(Resource.clb)] is its CLB count; missing axes read as 0).
    Under {!Primary} only that CLB count and [iobs] are consulted, through
    the very {!Device.fits} / {!Library.smallest_fitting} calls of the
    scalar model; under {!Vector} every demand axis is. *)

val fits :
  ?relax_low:bool -> t -> Device.t -> demand:int array -> iobs:int -> bool
(** Whether a partition of [demand] with [iobs] terminals fits the device
    ({!Device.fits} or {!Device.fits_demand}); [relax_low] ignores the
    lower utilization bounds. *)

val cheapest :
  ?relax_low:bool ->
  t ->
  Library.t ->
  demand:int array ->
  iobs:int ->
  Device.t option
(** The cheapest library device that {!fits} the partition, with the
    library's price/capacity/name tie-breaking ({!Library.smallest_fitting}
    or {!Library.smallest_fitting_demand}). *)

val res_max : t -> Device.t -> int array
(** Secondary-axis caps for F-M's soft penalty ([Fm.bounds ~res_max]):
    [[||]] under {!Primary}, which consults no secondary axis, and
    {!Device.demand_caps} under {!Vector}. *)

val total_cost : t -> device_cost:float -> cut_nets:int -> float
(** [device_cost +. net_cost ~nets:cut_nets] — the scalar a k-way
    solution is ranked by. *)

val pp : Format.formatter -> t -> unit
