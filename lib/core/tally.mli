(** Whole-cell labellings and their running per-part sums. Owns the
    tally's layout — each net's parts packed with their pin counts in one
    flat slot table — and every loop that reads it: device settling, part
    assembly, the greedy boundary mover and the seeding of unlabelled
    cells. No other module sees a slot. *)

type t

val create : Hypergraph.t -> int -> int array -> t

val settle_devices :
  caller:string ->
  options:Kway_types.options ->
  library:Fpga.Library.t ->
  devices:Fpga.Device.t array ->
  t ->
  (int array * Fpga.Device.t array, string) Stdlib.result
(** A part no device accepts is an [Error] naming [caller], the public
    entry point that asked (["Kway.warm_start: no device accepts ..."]). *)

val parts :
  t ->
  labels:int array ->
  iobs:int array ->
  devices:Fpga.Device.t array ->
  Kway_types.part list

val live_parts : t -> int

val materialise :
  caller:string ->
  options:Kway_types.options ->
  library:Fpga.Library.t ->
  labels:int array ->
  devices:Fpga.Device.t array ->
  t ->
  (Kway_types.part list, string) Stdlib.result

val project_parts :
  ?options:Kway_types.options ->
  library:Fpga.Library.t ->
  labels:int array ->
  devices:Fpga.Device.t array ->
  Hypergraph.t ->
  (Kway_types.part list, string) Stdlib.result

val greedy_refine :
  opts:Kway_types.options ->
  obs:Obs.t ->
  dirty:bool array ->
  rounds:int ->
  labels:int array ->
  iobs:int array ->
  devices:Fpga.Device.t array ->
  t ->
  unit

val seed_unlabelled :
  Hypergraph.t ->
  windows:Fpga.Objective.window array ->
  int array ->
  bool array ->
  t * int
