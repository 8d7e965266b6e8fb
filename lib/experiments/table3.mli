(** Table III — best and average cut-set size over repeated equal-size
    bipartitions: classic F-M min-cut versus F-M + functional replication
    (threshold T = 0, terminal constraints relaxed). The paper runs 20
    bipartitions per circuit and reports best/average cut and the
    percentage reductions. *)

type row = {
  name : string;
  plain_best : int;
  plain_avg : float;
  repl_best : int;
  repl_avg : float;
  best_reduction : float;   (** percent *)
  avg_reduction : float;    (** percent *)
  plain_cpu_secs : float;   (** process CPU seconds for all plain runs *)
  repl_cpu_secs : float;    (** process CPU seconds for all replication runs *)
}

val run : ?runs:int -> ?seed:int -> Suite.entry -> row
(** [runs] defaults to the paper's 20. *)

val average : row list -> row
(** The paper's "Avg." line: arithmetic means of the reduction columns
    (best/avg fields hold per-circuit means of the respective columns). *)

val pp : Format.formatter -> row list -> unit
(** Rows plus the averages line, in the paper's layout. *)
