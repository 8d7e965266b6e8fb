(** The paper's two objective functions.

    Eq. (1): total device cost [$ _k = sum_i d_i n_i] over the devices used
    by a k-way partition. Eq. (2): average IOB utilization
    [lambda_k = sum_j t_{P_j} / sum_i t_i n_i], the paper's measure of
    inter-device interconnect.

    Placements additionally carry the partition's full resource demand
    vector, and summaries report per-axis aggregate utilization — the
    raw material of the vector objectives in {!Objective}. *)

type placement = {
  device : Device.t;
  clbs : int;  (** CLBs of the partition implemented on this device *)
  iobs : int;  (** terminals (used IOBs) of that partition *)
  used : int array;
      (** demand over the first [Resource.demand_arity] axes (missing axes
          read as 0); [used.(Resource.clb) = clbs]. *)
}

val place : Device.t -> used:int array -> clbs:int -> iobs:int -> placement
(** The only way to build a placement. Raises [Invalid_argument] if
    [used.(Resource.clb) <> clbs]. *)

type summary = {
  num_partitions : int;             (** [k] *)
  total_cost : float;               (** eq. (1) *)
  avg_iob_utilization : float;      (** eq. (2) *)
  avg_clb_utilization : float;      (** aggregate: used CLBs / capacity *)
  total_clbs : int;
  total_iobs : int;
  device_counts : (string * int) list;  (** per device type, library order *)
  resource_util : (string * float) list;
      (** per-axis aggregate utilization, one [("<axis>_util", used/cap)]
          entry per {!Resource} axis in axis order; 0 when the device
          pool has no capacity on that axis. The [clb]/[io] entries
          restate [avg_clb_utilization]/[avg_iob_utilization]. *)
}

val summarize : placement list -> summary
(** Raises [Invalid_argument] on an empty placement list. *)

val pp_summary : Format.formatter -> summary -> unit
