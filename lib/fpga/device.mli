(** FPGA device types.

    A device [D_i = (c_i, t_i, d_i, l_i, u_i)] as in Table I of the paper:
    CLB capacity, terminal (IOB) count, unit price, and lower/upper bounds
    on CLB utilization for a feasible assignment — generalised to a
    {!Resource} capacity vector with per-axis utilization windows. The
    paper's scalar model is the special case where only the primary (CLB)
    and IO axes are constrained; {!make} builds exactly that case.

    The record is [private]: construct through {!make} or {!make_vector}
    only (the {!Kway.Options.make} pattern from PR 2, enforced at the type
    level rather than by [[@@deprecated]] so stale literal construction is
    a compile error, not a warning). Field reads remain ordinary.

    A device only states its bounds. Which of them a partition must
    respect under an objective — the CLB window and terminal budget
    alone, or every demand axis — is decided in one place,
    {!Objective.window}, and every feasibility test reads that window. *)

type t = private {
  name : string;
  capacity : int;     (** [c_i]: configurable logic blocks
                          (= [resources.(Resource.clb)], cached) *)
  terminals : int;    (** [t_i]: I/O blocks
                          (= [resources.(Resource.io)], cached) *)
  price : float;      (** [d_i]: unit cost (normalised dollars) *)
  util_low : float;   (** [l_i]: minimum CLB utilization of a feasible use
                          (= [res_low.(Resource.clb)], cached) *)
  util_high : float;  (** [u_i]: maximum CLB utilization
                          (= [res_high.(Resource.clb)], cached) *)
  resources : Resource.t;  (** per-axis capacities, length [Resource.arity] *)
  res_low : float array;   (** per-axis lower utilization bounds *)
  res_high : float array;  (** per-axis upper utilization bounds *)
}

val make :
  name:string -> capacity:int -> terminals:int -> price:float ->
  ?util_low:float -> ?util_high:float -> unit -> t
(** The paper's scalar device. Defaults: [util_low = 0.0],
    [util_high = 1.0]. Raises [Invalid_argument] on non-positive
    capacity/terminals/price or bounds outside [0 <= l <= u <= 1].
    Secondary axes get the XC3000 shape: FF capacity [2 * capacity]
    (two flip-flops per CLB), no BRAM/DSP; secondary windows are
    \[0, 1\] so they never constrain the scalar model. *)

val make_vector :
  name:string -> resources:Resource.t -> price:float ->
  ?res_low:float array -> ?res_high:float array -> unit -> t
(** A fully vector-specified device. [resources] must have length
    [Resource.arity] with positive CLB and IO capacities and non-negative
    others; [res_low]/[res_high] (defaults all-0 / all-1) must satisfy
    [0 <= low.(a) <= high.(a) <= 1] per axis. Raises [Invalid_argument]
    otherwise. *)

val min_clbs : t -> int
(** Smallest CLB count satisfying the lower utilization bound
    ([ceil (l_i * c_i)]). *)

val max_clbs : t -> int
(** Largest CLB count satisfying the upper bound ([floor (u_i * c_i)]). *)

val axis_min : t -> int -> int
(** Per-axis lower bound, [ceil (res_low.(a) * resources.(a))];
    [axis_min d Resource.clb = min_clbs d]. *)

val axis_max : t -> int -> int
(** Per-axis upper bound, [floor (res_high.(a) * resources.(a))];
    [axis_max d Resource.clb = max_clbs d]. *)

val price_per_clb : t -> float

val clb_utilization : t -> clbs:int -> float
val iob_utilization : t -> iobs:int -> float

