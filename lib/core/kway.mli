(** k-way partitioning into a heterogeneous FPGA library (Sections I and
    IV; the recursive-bipartitioning driver of ref. [3] extended with
    functional replication).

    The driver repeatedly splits off one feasible single-device subcircuit:
    at each step it either places the whole remainder on the cheapest
    device that accepts it, or runs device-window F-M bipartitions
    (candidate devices in cost-efficiency order, multi-start) until a
    feasible split emerges, then recurses on the remainder. A multi-start
    outer loop collects several feasible k-way partitions and keeps the
    best by (total cost, then average IOB utilization) — the paper's twin
    objectives (1) and (2).

    The multi-start runs are independent trials; with [jobs > 1] they
    execute on OCaml 5 domains (see {!Parallel.Pool}) with {e no} effect on
    the outcome or the telemetry: each run derives its RNG from
    [(seed, run index)] and records into a private forked sink, the sinks
    merge back in run order, and the winner is selected with the exact
    sequential tie-break — so [jobs=N] produces byte-identical scrubbed
    telemetry to [jobs=1]. *)

type part = {
  device : Fpga.Device.t;
  members : (int * Bitvec.t) list;
      (** cells of the original hypergraph in this partition, with the
          output mask their copy carries (whole mask when not
          replicated) *)
  clbs : int;
  iobs : int;  (** terminals used: nets leaving this device *)
  used : int array;
      (** per-axis resource consumption ([Hypergraph.demand_arity] long;
          [used.(0) = clbs]); a replicated member pays its whole demand
          vector in every part it appears in, matching the CLB
          accounting *)
}

type result = {
  parts : part list;
  summary : Fpga.Cost.summary;
  replicated_cells : int;  (** original cells present in more than one part *)
  total_cells : int;
  wall_secs : float;
      (** wall-clock seconds for the whole multi-start call, refinement
          included *)
  cpu_secs : float;
      (** process CPU seconds over the same interval, all domains summed —
          equals [wall_secs] (up to noise) at [jobs = 1] and exceeds it
          under parallelism *)
  runs : int;
  feasible_runs : int;
}

type multilevel = {
  max_levels : int;     (** coarsening depth cap (levels of the hierarchy) *)
  coarsen_ratio : float;
      (** stall threshold in (0, 1): coarsening stops when one matching
          round keeps at least this fraction of the cells *)
  refine_passes : int;
      (** boundary-restricted refinement sweeps per uncoarsening level
          (the greedy mover's sweep count; also [refine_rounds] for the
          finest level's replication round) *)
}

type strategy =
  | Flat  (** the classic driver: device-window F-M splits on the full
              hypergraph — the default, byte-identical to the
              pre-multilevel code path *)
  | Multilevel of multilevel
      (** V-cycle: coarsen by heavy-edge matching under per-axis cluster
          weight caps, run the flat driver on the coarsest graph, then
          project labels down level by level, refining each level's
          boundary cells with a greedy mover (see {!partition}).
          Functional replication runs once, after the finest level. *)

type options = private {
  runs : int;          (** multi-start count (the paper generates 5
                           feasible partitions per run) *)
  seed : int;
  replication : [ `None | `Functional of int ];
  max_passes : int;    (** F-M passes per bipartition *)
  fm_attempts : int;   (** random restarts per split step and device *)
  refine_rounds : int;
      (** pairwise-refinement sweeps applied to the winning run's parts:
          each sweep re-bipartitions the most net-sharing part pairs (up to
          4k of them) under both device windows to shed terminals (and
          possibly shrink devices); refinement never worsens a partition;
          0 disables *)
  jobs : int;
      (** domains used for the multi-start runs (and, when [runs < jobs],
          for the per-split [fm_attempts] restarts); [1] runs everything in
          the calling domain. Never affects the result. *)
  should_stop : unit -> bool;
      (** cooperative-cancellation hook, polled at the split-step and
          F-M pass boundaries (see {!Fm.config}); when it returns [true]
          the driver abandons the search and {!partition} returns
          [Error] {!cancelled}. Defaults to [fun () -> false] — the
          default hook never changes behaviour or telemetry. The service
          daemon points it at the job's cancel flag and deadline; the CLI
          points it at the SIGINT/SIGTERM flag. *)
  objective : Fpga.Objective.t;
      (** the cost model driving every pricing and feasibility decision:
          its [net_price] joins each device's [price] in the
          split-efficiency and run rankings, its F-M objectives drive
          both searches, and its feasibility mode sets the device test.
          Defaults to {!Fpga.Objective.paper}, which is bit-identical to
          the pre-objective scalar driver (its net price is [0.0] and its
          feasibility mode keeps the scalar device test). *)
  strategy : strategy;
      (** {!Flat} (default) or {!Multilevel}. *)
}
(** Private: every value has passed {!Options.make}'s checks. To vary a
    few fields of an existing value, pass it to {!Options.make} as
    [~base]. Which fields identify a result, and how they are spelled in
    JSON, is stated once, in {!Experiments.Obs_report}. *)

val cancelled : string
(** The exact [Error] payload {!partition} returns when [should_stop]
    aborted the search — callers distinguish cancellation from a genuine
    "no feasible partition" by comparing against this string. *)

(** Labelled constructors for {!options}. *)
module Options : sig
  type t = options

  val default : t
  (** 5 runs, seed 1, no replication, 10 passes, 3 attempts, 1 refinement
      sweep, 1 job, flat strategy. *)

  val default_multilevel : multilevel
  (** 12 levels, stall ratio 0.9, 2 refinement passes per level — the
      knobs [Multilevel default_multilevel] enables when the caller gives
      no numbers (the CLI's bare [--multilevel]). *)

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
  (** Every argument left out takes [base]'s value ([base] defaults to
      {!default}), so adding future knobs never breaks a caller, and
      [make ~base ~seed ()] is [base] with another seed.

      Raises [Invalid_argument] when [runs], [max_passes], [fm_attempts]
      or [jobs] is non-positive, or [refine_rounds] is negative: a bad
      budget otherwise fails far downstream ([runs = 0] surfaces as "no
      feasible partition", [fm_attempts = 0] as an empty restart loop)
      where the cause is unrecoverable from the symptom. A [Multilevel]
      strategy additionally requires positive [max_levels] and
      [refine_passes] and a [coarsen_ratio] strictly inside [(0, 1)]. *)
end

val partition :
  ?obs:Obs.t ->
  ?options:options ->
  library:Fpga.Library.t ->
  Hypergraph.t ->
  (result, string) Stdlib.result
(** [Error] when no run produces a fully feasible k-way partition.

    Dispatches on [options.strategy]: [Flat] runs the classic driver
    described above; [Multilevel] coarsens first ({!Coarsen.hierarchy}
    under per-axis cluster weight caps of a quarter of the smallest
    device window), runs the flat driver on the coarsest graph (with
    narrowed search budgets when the estimated device count exceeds 16
    or the coarsest graph holds more than 512 cells per estimated
    part), then uncoarsens V-cycle style — the first step of
    {!project_parts} per level, then [refine_passes] refinement sweeps
    restricted to the labelling's boundary cells ({!Hypergraph.boundary}).
    Every level runs a deterministic greedy mover, which moves whole
    boundary cells to the adjacent part that most reduces total terminals
    within the parts' device windows and never changes a device. The mover
    works on the level's labelling and tally, so member lists are built
    once, after the finest level. When [options.replication] is not
    [`None], those parts then get the flat driver's pairwise refinement
    once, with replication, restricted to the finest labelling's boundary
    cells — the refinement {!warm_start} runs. Multilevel
    telemetry adds counters ["ml.level"] and ["kway.greedy_moves"],
    histograms ["ml.cells_per_level"] / ["ml.coarsen_ratio"] (percent),
    events ["ml.coarsen"] / ["ml.refine"] (and ["kway.greedy_round"]),
    and spans ["coarsen<l>"] / ["refine<l>"], the latter wrapping the
    level's ["greedy<r>"] sweeps and, at the finest level, the
    replication round's ["refine<r>"] sweeps; the flat path emits none
    of these, and its event stream is byte-identical to the
    pre-multilevel driver.

    With a collecting [obs] (default {!Obs.noop}: record nothing, cost
    nothing), the driver emits its full telemetry: each multi-start run
    lives in a span ["run<r>"] and ends with a ["kway.run"] event; each
    split step spans ["split<s>"] with one ["kway.device_attempt"] event
    per candidate device (fields [step], [device], [feasible], and when
    feasible [clbs]/[iobs]/[cut]) and a closing ["kway.split"] (or
    ["kway.fit"] when the remainder fits a single device, or
    ["kway.split_failed"]); the inner F-M emits its per-pass events under
    those spans (see {!Fm.run}); pairwise refinement spans ["refine<n>"]
    and emits ["kway.refine_pair"] and ["kway.refine_round"] events with
    terminal deltas. Histograms ["kway.attempt_cut"] (cut of every
    feasible device attempt) and ["kway.split_cut"] (cut of each chosen
    split) accumulate alongside the F-M ["fm.gain"]/["fm.scan_len"]
    distributions. Identical options yield an identical event stream —
    [jobs] included: runs (and restarts) record into {!Obs.fork}ed sinks
    merged back in index order, so the snapshot holds no clock reading
    and is byte-identical between runs and across [jobs] settings.

    When [obs] traces ({!Obs.create} with [trace:true]), every span also
    lands on a trace lane: [pid] is the multi-start run index (runs fork
    with [Obs.fork ~pid]) and [tid] the {!Parallel.Pool.worker_id} of the
    domain that executed it — lanes shape the trace only, never the
    scrubbed stats. *)

val result_of_parts : Hypergraph.t -> part list -> result
(** Wrap a part list into a {!result} by recounting the summary and
    replication figures from the members ([wall_secs]/[cpu_secs] zero,
    [runs = feasible_runs = 1]) — the shape {!check} expects, for
    checking hand-built or projected parts. The drivers do not call it;
    the projection tests do. *)

val project_parts :
  ?options:options ->
  library:Fpga.Library.t ->
  labels:int array ->
  devices:Fpga.Device.t array ->
  Hypergraph.t ->
  (part list, string) Stdlib.result
(** Materialise a whole-cell labelling into parts. No driver calls it;
    {!warm_start} and the V-cycle walk run its two steps (below) directly.
    [labels.(c)] indexes [devices];
    every cell joins its labelled part with its full output mask (no
    replication). Per-part CLB/demand sums and IOBs are recounted from
    scratch; each part keeps its given device when that still passes
    {!Fpga.Objective.fits} under [options.objective] (lower utilisation
    window relaxed, as {!check} allows) and otherwise takes
    {!Fpga.Objective.cheapest}. [Error] on a malformed labelling (length
    mismatch, label outside [0, Array.length devices), no devices) or when
    some part fits no library device.

    Cost: O(cells + pins) time while nets carry few parts (a pin scans
    its net's parts). It runs in two steps. The first tallies the
    labelling into per-part CLB and demand sums and, per net, its parts
    in part order with their pin counts, in flat tables of O(nets + pins)
    words whatever the number of parts; it then counts IOBs and settles
    devices. The second builds the member lists. Greedy V-cycle levels
    ({!partition}) run only the first step and move cells in its tally.
    Besides the parts it returns and those tables, it allocates nothing
    per net or cell. *)

val labels_of_parts : Hypergraph.t -> part list -> int array * bool array
(** Flatten a finished partition to per-cell form for projection onto an
    edited hypergraph: [(labels, replicated)] where [labels.(c)] is the
    index (within the given part list) of the part driving most of cell
    [c]'s outputs (first such part at ties) and [replicated.(c)] is true
    when the cell appears in more than one part. {!project_warm} feeds
    [replicated] into the projection's [base_dirty] so the warm start
    re-decides those cells' replication rather than trusting a single
    collapsed label. *)

type warm = {
  w_labels : int array;
      (** per-cell part index into [w_devices], or [-1] for a cell the
          warm start must seed (typically a cell added by the edit) *)
  w_dirty : bool array;
      (** per-cell: inside the edit's blast radius — only these cells may
          move during warm refinement (see {!Projection.project}) *)
  w_devices : Fpga.Device.t array;
      (** the base partition's devices, in label order *)
}
(** A warm-start seed: the base partition projected onto the edited
    hypergraph (see [Projection.project] in the hypergraph library).
    {!project_warm} builds it from a finished partition. *)

val project_warm :
  base:Hypergraph.t ->
  base_parts:part list ->
  Hypergraph.t ->
  warm * Projection.t
(** [project_warm ~base ~base_parts edited] is the warm seed of an edit:
    {!labels_of_parts} of [base_parts] projected onto [edited] with
    [Projection.project], every replicated base cell passed as
    [base_dirty], and [w_devices] the parts' devices in order. The
    projection itself is returned too, for its dirty/added/changed-net
    counts. *)

val warm_start :
  ?obs:Obs.t ->
  ?options:options ->
  library:Fpga.Library.t ->
  warm:warm ->
  Hypergraph.t ->
  (result, string) Stdlib.result
(** Incremental repartitioning: rebuild a k-way partition of the (edited)
    hypergraph from a projected base partition instead of from scratch.
    Unlabelled cells are seeded greedily onto the part with the most
    incident-net affinity (ties towards capacity headroom, then the
    emptier part) and marked dirty; the completed labelling becomes parts
    through {!project_parts} (so each part keeps its base device when it
    still fits and otherwise takes the cheapest fitting device), and with
    every cell clean the result's parts are exactly {!project_parts}'s;
    then pairwise refinement runs restricted to
    the dirty set — only pairs sharing a dirty net are swept and only
    dirty cells may move (clean cells are pre-locked via {!Fm.config}'s
    [active]), so the whole call costs O(blast radius), not O(circuit).
    At least one refinement round runs even when [options.refine_rounds]
    is [0], since refinement is the only optimisation a warm start
    performs. The result has [runs = feasible_runs = 1].

    [Error] when the seed is malformed (label out of range, length
    mismatch, no devices), when some part no longer fits any library
    device ({!project_parts}'s error), or when [options.should_stop] fired
    ({!cancelled}) — callers (the service daemon) fall back to a cold
    {!partition} run.

    With a collecting [obs], the refinement telemetry lands under a span
    named ["warm"]; on success counter ["kway.warm_starts"] increments,
    histograms ["kway.warm_seeded_cells"] / ["kway.warm_dirty_cells"]
    record the seed's shape, and one ["kway.warm"] event summarises the
    call. *)

val check :
  ?objective:Fpga.Objective.t ->
  Hypergraph.t ->
  result ->
  (unit, string) Stdlib.result
(** Soundness of a result: every output of every original cell is driven
    by exactly one part (masks partition each cell's outputs), the
    recorded per-part CLB/IOB numbers and resource vector match a recount
    from the members (IOBs: nets leaving the device, recounted on the
    original hypergraph), every part passes its device under
    {!Fpga.Objective.fits} (lower window relaxed), and the summary's
    partition count, total cost, total CLBs/IOBs and the replication
    figures agree with what the members imply.

    A result does not record its objective, so pass the one it was
    computed under: [objective] (default {!Fpga.Objective.paper}) picks
    the device test, and only a vector-feasibility objective rejects a
    part over its device's FF/BRAM/DSP caps. Used by tests and
    assertions. *)

val pp_result : Format.formatter -> result -> unit
