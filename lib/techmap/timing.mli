(** Partition-aware static timing analysis of mapped netlists.

    A simple but standard delay model: every CLB lookup adds [clb_delay];
    every net adds [local_net_delay] inside a device or [board_net_delay]
    when it crosses between devices (which net crosses is the caller's
    predicate, typically derived from a k-way partition). Paths start at
    chip input pads and flip-flop outputs and end at chip output pads and
    flip-flop data inputs.

    This is an extension beyond the paper's tables: the paper motivates
    partitioning quality by performance, and this module quantifies it —
    inter-device hops dominate path delay, so cuts and IOB counts translate
    directly into critical-path estimates. *)

type delay_model = {
  clb_delay : float;
  local_net_delay : float;
  board_net_delay : float;
}

val default_model : delay_model
(** 1.0 / 0.2 / 8.0 — board-level nets an order of magnitude slower than
    intra-device routing, the regime of the paper's era. *)

type report = {
  critical_delay : float;
  critical_crossings : int;
      (** device-boundary hops along one critical path *)
  critical_path : int list;
      (** the nets along that path, source to endpoint *)
  arrival : float array;  (** settle time per net id *)
}

val analyze :
  ?model:delay_model -> crossing:(int -> bool) -> Mapped.t -> report
(** Raises [Invalid_argument] on a combinational cycle. *)
