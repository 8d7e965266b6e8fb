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
    telemetry cases of [test/test_contracts.ml]. *)

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

val total_cost : t -> device_cost:float -> cut_nets:int -> float
(** [device_cost +. net_cost ~nets:cut_nets] — the scalar a k-way
    solution is ranked by. *)

val pp : Format.formatter -> t -> unit
