(** Pluggable cost objectives.

    The paper minimises total device cost (eq. 1) with average IOB
    utilization (eq. 2) as the interconnect tie-breaker; every other cost
    model the partitioner supports differs only in what a cut net costs
    and in which feasibility test a partition must pass. An objective is
    plain data: a device costs its [price], a cut net costs [net_price],
    and two F-M objectives and a feasibility mode complete it, so the
    k-way driver stays objective-agnostic.

    The paper objective is the identity element of the design: its
    [net_price] is [0.0] and its feasibility mode is {!Primary}, so every
    total it contributes to is the same float the scalar code path
    computed ([x +. 0.0 *. n = x] for the finite positive prices and
    non-negative net counts involved) — bit-identical results, enforced
    by the golden telemetry cases of [test/test_contracts.ml].

    Every bound the partitioner puts on a part comes from one record, the
    device's {!window} under the objective: the CLB utilization window
    [[l_i c_i, u_i c_i]], the terminal budget [t_i], and the secondary
    axes the objective constrains. {!fits} and {!cheapest} test it, and
    F-M, the split loop, the pair refiner, the greedy mover and the
    coarsening caps read it, so the feasibility mode is matched once, in
    {!window}, and read nowhere else. *)

type fm_objective = [ `Cut | `Terminals ]
(** Which quantity the F-M engine minimises; [Fm.objective] is this
    type. *)

type feasibility =
  | Primary
      (** The paper's scalar test: CLB window + terminal budget only. The
          {!window} constrains the CLB axis alone. *)
  | Vector
      (** Per-axis feasibility: every demand axis of a partition must
          land in the device's window. During F-M the secondary axes are
          soft penalties (like the terminal budget already is), so the
          hot loop stays allocation-free. *)

type t = {
  name : string;
  description : string;
  net_price : float;
      (** Interconnect cost of one cut (partition-external) signal; [n]
          cut signals add [net_price *. float n] to device totals when
          ranking candidate devices and k-way solutions. A device always
          costs its [Device.price]. *)
  split_objective : fm_objective;
      (** F-M objective while carving one partition out of the rest. *)
  refine_objective : fm_objective;
      (** F-M objective during pairwise post-refinement. *)
  feasibility : feasibility;
}

val paper : t
(** ["paper"]: eq. (1) device cost, zero net price, cut-driven split,
    terminal-driven refinement, primary feasibility. The default, and
    bit-identical to the pre-objective scalar code path. *)

val multi_personality : t
(** ["multi-personality"]: Gregerson's heterogeneous-resource model —
    same device pricing as the paper, but {!Vector} feasibility so FF /
    BRAM / DSP demand constrains placement alongside CLBs. *)

val chiplet : t
(** ["chiplet"]: ChipletPart-style 2.5D model — every cut signal crosses
    the interposer, priced at {!chiplet_net_cost} as its [net_price], so
    both F-M stages minimise terminals and solution ranking pays for interconnect. *)

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
    under an objective. [demand] is a partition's demand vector
    ([demand.(Resource.clb)] is its CLB count; missing axes read as 0). *)

type window = private {
  lo : int array;
      (** per demand axis ([Resource.demand_arity] long), the least a
          partition may use: [Device.axis_min], or 0 when the lower
          bounds are relaxed. [lo.(Resource.clb) >= 1], since a partition
          holds at least one CLB. *)
  hi : int array;
      (** per demand axis, the most a partition may use:
          [Device.axis_max]. *)
  max_iobs : int;  (** the terminal budget [t_i] *)
  axes : int;
      (** how many demand axes, from [Resource.clb] on, the objective
          constrains: 1 (the CLB axis) under {!Primary}, all of them
          under {!Vector}. The rest are unconstrained, with [lo] 0 and
          [hi] [max_int]. *)
}

val window : ?relax_low:bool -> t -> Device.t -> window
(** The device's window under the objective; [relax_low] drops every
    lower utilization bound but the one-CLB floor (the final remainder
    partition of a k-way decomposition, and parts whose device is
    already chosen). *)

val narrow : hi:int -> window -> window
(** The window with its CLB cap lowered to [min hi hi.(clb)] (the split
    loop keeps it below the remainder's area); the result may be
    empty. *)

val fits :
  ?relax_low:bool -> t -> Device.t -> demand:int array -> iobs:int -> bool
(** Whether a partition of [demand] with [iobs] terminals lies in the
    device's {!window}: [iobs <= max_iobs] and [lo.(a) <= demand.(a) <=
    hi.(a)] on each of its first [axes] axes. *)

val cheapest :
  ?relax_low:bool ->
  t ->
  Library.t ->
  demand:int array ->
  iobs:int ->
  Device.t option
(** The cheapest library device that {!fits} the partition
    ({!Library.cheapest}: ties by capacity, then name). *)

val total_cost : t -> device_cost:float -> cut_nets:int -> float
(** [device_cost +. t.net_price *. float cut_nets] — the scalar a k-way
    solution is ranked by. *)
