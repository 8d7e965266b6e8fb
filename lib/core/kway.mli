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
          (becomes [refine_rounds] for the per-level pairwise F-M) *)
}

type strategy =
  | Flat  (** the classic driver: device-window F-M splits on the full
              hypergraph — the default, byte-identical to the
              pre-multilevel code path *)
  | Multilevel of multilevel
      (** V-cycle: coarsen by heavy-edge matching under per-axis cluster
          weight caps, run the flat driver on the coarsest graph, then
          project labels down level by level, refining each level with
          F-M restricted to boundary cells. Functional replication is
          applied only at the finest {!repl_fine_levels} levels. *)

type options = {
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
          points it at the SIGINT/SIGTERM flag. Like [jobs], it is an
          execution knob: it is never serialised into the stats schema. *)
  objective : Fpga.Objective.t;
      (** the cost model driving every pricing and feasibility decision:
          device choice, split-efficiency ranking, F-M objectives, run
          ranking. Defaults to {!Fpga.Objective.paper}, which is
          bit-identical to the pre-objective scalar driver (its net cost
          is the constant [0.0] and its feasibility mode keeps the scalar
          device test). Unlike [jobs]/[should_stop] it {e is} part of the
          result's identity, so the service serialises its [name] into
          options fingerprints and digests. *)
  strategy : strategy;
      (** {!Flat} (default) or {!Multilevel}. Like [objective] it is part
          of the result's identity and is serialised (only when not
          [Flat], so existing flat stats and digests stay
          byte-identical). *)
}
(** @deprecated Constructing this record literally is deprecated: every new
    knob (like [jobs] or [should_stop]) is a breaking change for literal
    builders. Use {!Options.make} (or functional update of
    {!Options.default}), which defaults every field. The record stays
    exposed for field access and functional update. *)

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
  (** Every argument defaults to its {!default} value, so adding future
      knobs never breaks a caller.

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
    under per-axis cluster weight caps of half the largest device
    window), runs the flat driver on the coarsest graph (with narrowed
    search budgets when the estimated device count exceeds 16), then
    uncoarsens V-cycle style — {!project_parts} per level, then pairwise
    F-M refinement restricted to the labelling's boundary cells (the
    warm-start [active] machinery), with [refine_passes] sweeps per
    level. Multilevel telemetry adds counter ["ml.level"], histograms
    ["ml.cells_per_level"] / ["ml.coarsen_ratio"] (percent), events
    ["ml.coarsen"] / ["ml.refine"], and spans ["coarsen<l>"] /
    ["refine<l>"]; the flat path emits none of these, and its event
    stream is byte-identical to the pre-multilevel driver.

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
    merged back in index order, so only the ["_secs"]-keyed timers vary
    between runs or across [jobs] settings.

    When [obs] traces ({!Obs.create} with [trace:true]), every span also
    lands on a trace lane: [pid] is the multi-start run index (runs fork
    with [Obs.fork ~pid]) and [tid] the {!Parallel.Pool.worker_id} of the
    domain that executed it — lanes shape the trace only, never the
    scrubbed stats. *)

val repl_fine_levels : int
(** Number of finest uncoarsening levels (2) at which a [Multilevel] run
    honours [options.replication]; every coarser level refines with
    replication forced off, because coarse clusters are opaque (every
    output depends on every input — see {!Coarsen}) and so offer
    functional replication no adjacency slack to exploit. *)

val result_of_parts : Hypergraph.t -> part list -> result
(** Wrap a part list into a {!result} by recounting the summary and
    replication figures from the members ([wall_secs]/[cpu_secs] zero,
    [runs = feasible_runs = 1]) — the shape {!check} expects. Used by the
    projection tests and the multilevel driver's level hand-offs. *)

val project_parts :
  ?options:options ->
  library:Fpga.Library.t ->
  labels:int array ->
  devices:Fpga.Device.t array ->
  Hypergraph.t ->
  (part list, string) Stdlib.result
(** Materialise a whole-cell labelling into parts — the uncoarsening step
    of the V-cycle. [labels.(c)] indexes [devices]; every cell joins its
    labelled part with its full output mask (no replication). Per-part
    CLB/demand sums and IOBs are recounted from scratch; each part keeps
    its given device when that still fits (lower utilisation window
    relaxed, as {!check} allows) and otherwise takes the cheapest
    accepting device under [options.objective]'s feasibility mode.
    [Error] on a malformed labelling or when some part fits no library
    device. *)

val labels_of_parts : Hypergraph.t -> part list -> int array * bool array
(** Flatten a finished partition to per-cell form for projection onto an
    edited hypergraph: [(labels, replicated)] where [labels.(c)] is the
    index (within the given part list) of the part driving most of cell
    [c]'s outputs (first such part at ties) and [replicated.(c)] is true
    when the cell appears in more than one part. Callers feed [replicated]
    into the projection's [base_dirty] so the warm start re-decides those
    cells' replication rather than trusting a single collapsed label. *)

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
    hypergraph (see [Projection.project] in the hypergraph library). *)

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
    emptier part) and marked dirty; parts keep their base device when it
    still fits ([relax_low], as {!check} allows) and otherwise take the
    cheapest fitting device; then pairwise refinement runs restricted to
    the dirty set — only pairs sharing a dirty net are swept and only
    dirty cells may move (clean cells are pre-locked via {!Fm.config}'s
    [active]), so the whole call costs O(blast radius), not O(circuit).
    At least one refinement round runs even when [options.refine_rounds]
    is [0], since refinement is the only optimisation a warm start
    performs. The result has [runs = feasible_runs = 1].

    [Error] when the seed is malformed (label out of range, length
    mismatch, no devices), when some part no longer fits any library
    device, or when [options.should_stop] fired ({!cancelled}) — callers
    (the service daemon) fall back to a cold {!partition} run.

    With a collecting [obs], the refinement telemetry lands under a span
    named ["warm"], counter ["kway.warm_starts"] increments, histograms
    ["kway.warm_seeded_cells"] / ["kway.warm_dirty_cells"] record the
    seed's shape, and one ["kway.warm"] event summarises the call. *)

val check : Hypergraph.t -> result -> (unit, string) Stdlib.result
(** Soundness of a result: every output of every original cell is driven
    by exactly one part (masks partition each cell's outputs), every part
    obeys its device's size and terminal constraints, the recorded per-part
    CLB/IOB numbers match a recount from the members (IOBs: nets leaving
    the device, recounted on the original hypergraph), and the summary's
    partition count, total cost, total CLBs/IOBs and the replication
    figures agree with what the members imply. Used by tests and
    assertions. *)

val pp_result : Format.formatter -> result -> unit
