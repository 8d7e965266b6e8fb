(** Circuit statistics, as reported in Table II of the paper (before
    technology mapping; the mapped-cell counts come from [Techmap]). *)

type t = {
  name : string;
  num_inputs : int;
  num_outputs : int;
  num_gates : int;   (** non-input nodes, flip-flops included *)
  num_dff : int;
  num_nets : int;    (** signals with at least one reader or output mark *)
  num_pins : int;    (** total fanin connections + I/O pins *)
  depth : int;       (** longest combinational path *)
  max_fanin : int;
  max_fanout : int;
}

val compute : Circuit.t -> t

val pp : Format.formatter -> t -> unit
(** Multi-line human-readable rendering. *)
