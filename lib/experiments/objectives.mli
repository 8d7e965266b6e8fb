(** Per-objective ablation (the cost-objective API's experiment): the
    same circuit partitioned under each builtin {!Fpga.Objective},
    tabulating device cost, objective total (devices plus interconnect),
    interconnect and resource utilization side by side.

    Under the paper objective the row reproduces the main campaign
    exactly (the objective is bit-identical to the scalar driver); the
    multi-personality row shows what per-axis feasibility costs, and the
    chiplet row what pricing cut signals buys back in interconnect. *)

type row = {
  circuit : string;
  objective : string;  (** {!Fpga.Objective.t.name} *)
  outcome : (Core.Kway.result, string) result;
}

val run : ?runs:int -> ?seed:int -> Suite.entry -> row list
(** One row per {!Fpga.Objective.builtins} objective, same seed and
    multi-start budget for all of them. *)

val pp : Format.formatter -> row list -> unit
