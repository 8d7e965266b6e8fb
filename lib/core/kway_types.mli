(** The data the k-way phases exchange, and the one way a result is
    assembled. Owns the part, result and options records ({!Kway}
    re-exports them, with their documentation), copy coordinates (how a
    member of an induced sub-hypergraph maps back to the original cell and
    outputs), the right-sizing rule both the split loop and pairwise
    refinement apply, and the recount behind every driver's result. The
    verifier ({!Verifier}) does not use this recount. *)

type part = {
  device : Fpga.Device.t;
  members : (int * Bitvec.t) list;
  clbs : int;
  iobs : int;
  used : int array;
}

type result = {
  parts : part list;
  summary : Fpga.Cost.summary;
  replicated_cells : int;
  total_cells : int;
  wall_secs : float;
  cpu_secs : float;
  runs : int;
  feasible_runs : int;
}

type multilevel = {
  max_levels : int;
  coarsen_ratio : float;
  refine_passes : int;
}

type strategy = Flat | Multilevel of multilevel

type options = {
  runs : int;
  seed : int;
  replication : [ `None | `Functional of int ];
  max_passes : int;
  fm_attempts : int;
  refine_rounds : int;
  jobs : int;
  should_stop : unit -> bool;
  objective : Fpga.Objective.t;
  strategy : strategy;
}

val count_true : bool array -> int
val fm_obj_of : Fpga.Objective.fm_objective -> Fm.objective
val cancelled : string

module Options : sig
  type t = options

  val default : t
  val default_multilevel : multilevel

  val make :
    ?base:t ->
    ?runs:int ->
    ?seed:int ->
    ?replication:[ `None | `Functional of int ] ->
    ?max_passes:int ->
    ?fm_attempts:int ->
    ?refine_rounds:int ->
    ?jobs:int ->
    ?should_stop:(unit -> bool) ->
    ?objective:Fpga.Objective.t ->
    ?strategy:strategy ->
    unit ->
    t
end

val compress : Bitvec.t -> Bitvec.t -> Bitvec.t

val lift : (int * Bitvec.t) array -> int * Bitvec.t -> int * Bitvec.t

val right_size :
  relax_low:bool ->
  Fpga.Objective.t ->
  Fpga.Library.t ->
  demand:int array ->
  iobs:int ->
  Fpga.Device.t ->
  Fpga.Device.t

val devices_of : part list -> Fpga.Device.t array

val summarize_parts :
  Hypergraph.t -> part list -> Fpga.Cost.summary * int * int

val clock : unit -> float * float

val finish :
  ?since:float * float ->
  should_stop:(unit -> bool) ->
  runs:int ->
  feasible_runs:int ->
  Hypergraph.t ->
  (part list, string) Stdlib.result ->
  (result, string) Stdlib.result

val result_of_parts : Hypergraph.t -> part list -> result
