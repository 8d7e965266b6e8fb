(** The k-way partitioning campaign behind Tables IV-VII.

    One campaign partitions every circuit with the baseline driver (ref.
    [3]: no replication) and with functional replication at thresholds
    T = 0, 1, 2, 3, recording for each setting the paper's four reported
    quantities: percentage of replicated cells and CPU cost (Table IV),
    average CLB utilization (Table V), total device cost (Table VI) and
    average IOB utilization (Table VII). *)

type setting = Baseline | Threshold of int

type outcome = {
  feasible : bool;
  cost : float;              (** eq. (1) *)
  clb_util : float;          (** fraction *)
  iob_util : float;          (** eq. (2), fraction *)
  replicated_pct : float;
  cpu_secs : float;          (** process CPU seconds ({!Obs.Clock.cpu}) for the multi-start call *)
  k : int;
  devices : (string * int) list;
}

type row = {
  name : string;
  results : (setting * outcome) list;
}

val run :
  ?runs:int -> ?seed:int -> ?settings:setting list ->
  ?library:Fpga.Library.t -> Suite.entry -> row
(** [runs] is the paper's "5 feasible partitions per bipartitioning run"
    (default 5); [settings] defaults to the baseline, then T = 0, 1, 2,
    3. *)

(** {1 The paper's tables} *)

val pp_table4 : Format.formatter -> row list -> unit
(** Percentage of replicated cells per threshold, and CPU seconds. *)

val pp_table5 : Format.formatter -> row list -> unit
(** Average CLB utilization, baseline vs thresholds (percent + delta). *)

val pp_table6 : Format.formatter -> row list -> unit
(** Total device cost, baseline vs thresholds (cost + percent reduction). *)

val pp_table7 : Format.formatter -> row list -> unit
(** Average IOB utilization, baseline vs thresholds (percent + percent
    reduction). *)
