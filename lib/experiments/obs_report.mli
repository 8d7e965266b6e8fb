(** Aggregation of partitioning telemetry into the stable JSON document
    behind [fpgapart partition --stats-json] and the service's result
    documents.

    Schema (version 7) of a per-circuit document:
    - ["schema_version"]: [7];
    - ["circuit"], ["seed"]: identification;
    - ["options"]: the {!Core.Kway.options} used, as {!options_to_json}
      renders them (new in v5 ["objective"], new in v6 ["strategy"]);
    - ["result"]: outcome summary — [num_partitions], [total_cost],
      [avg_clb_utilization], [avg_iob_utilization], [total_clbs],
      [total_iobs], [replicated_cells], [total_cells], [feasible_runs],
      [wall_secs], [cpu_secs] (wall-clock vs all-domain process CPU; v1's
      single [elapsed_secs] claimed CPU seconds, which parallelism made
      wrong), new in v5 a ["resource_util"] object of per-axis aggregate
      utilizations (every key ends in [_util] and is masked by the
      determinism scrub — derived ratios), and a
      ["parts"] list of [{device, clbs, iobs}];
    - ["obs"]: the {!Obs.Snapshot} — ["counters"] (including, new in v4,
      ["fm.rescored_cells"] — best-op recomputations triggered by applied
      moves, the cost the criticality-filtered incremental rescoring is
      bounding), ["histograms"] (new in v3: name →
      [{"count"; "sum"; "buckets"}] with signed-log2 bucket labels, all
      integers — see {!Obs.observe}), and the ordered ["events"] stream
      (["fm.pass"], ["kway.device_attempt"], ["kway.split"],
      ["kway.refine_pair"], ...). v7 drops v6's ["timers"] object (the
      process-CPU seconds of every span path) and the
      ["fm.moves_per_sec"] histogram: a span's duration is its [--trace]
      span, and the ["obs"] object holds no clock reading, so two
      same-seed documents agree on it byte for byte, whatever [jobs] each
      ran with.

    Every elapsed-time field ends in ["_secs"]; after
    {!Obs.Snapshot.scrub_elapsed} two same-seed documents are
    byte-identical. The wall-clock trace a tracing sink records
    ({!Obs.Trace}) is deliberately {e absent} from this document:
    begin/end timestamps, domain track ids and GC deltas are
    execution-dependent, so they live only in the separate [--trace]
    artifact. *)

val schema_version : int

(** {1 Options}

    The one codec of {!Core.Kway.options}: the stats document's
    ["options"] object, the service protocol's ["options"] field and the
    service's options fingerprint (the MD5 of its {!Obs.Json.to_string}
    rendering) all use it.

    The serialised fields are exactly the ones that identify a result:
    ["runs"], ["seed"], ["replication"] (["none"] or
    [{"functional_threshold": T}]), ["max_passes"], ["fm_attempts"],
    ["refine_rounds"], ["objective"] (the {!Fpga.Objective} name) and
    ["strategy"] (["flat"] or [{"max_levels"; "coarsen_ratio";
    "refine_passes"}]), always all of them, in this order.
    ["coarsen_ratio"] is a number when {!Obs.Json.to_string}'s 12 digits
    read back as the same float, and otherwise its exact ["%h"] string,
    so the options cross the wire and into the fingerprint exactly. [jobs] and
    [should_stop] are execution knobs that never shape the result and are
    never serialised: their absence is what lets the determinism gate
    require byte-identical scrubbed documents across [--jobs] settings,
    and lets one cache entry serve any [jobs]. *)

val options_to_json : Core.Kway.options -> Obs.Json.t

val options_of_json : Obs.Json.t -> (Core.Kway.options, string) result
(** Inverse of {!options_to_json} on every serialised field; [jobs] and
    [should_stop] take their {!Core.Kway.Options.default}. A missing field
    takes its {!Core.Kway.Options.default} value (a missing multilevel
    knob its {!Core.Kway.Options.default_multilevel} value). [Error] on an
    ill-typed field (["ill-typed field \"runs\""]), an unknown objective
    name, or values {!Core.Kway.Options.make} rejects (its
    [Invalid_argument] message). *)

val result_to_json : Core.Kway.result -> Obs.Json.t

val doc :
  name:string ->
  options:Core.Kway.options ->
  result:Core.Kway.result option ->
  snapshot:Obs.Snapshot.t ->
  Obs.Json.t
(** Assemble the per-circuit document from a run the CLI has in hand.
    [result = None] is a run cancelled before it finished: the document
    carries ["interrupted": true] in place of ["result"], the other keys
    in the same order. *)

val write : path:string -> Obs.Json.t -> unit

val pp_convergence :
  snapshot:Obs.Snapshot.t ->
  trace:Obs.Trace.span list ->
  wall_secs:float ->
  Format.formatter ->
  unit
(** Human-readable convergence report from one partitioning run:
    a pass-by-pass cutsize table aggregated over every F-M restart (from
    the ["fm.pass"] events), the recorded histograms rendered with
    {!Obs.bucket_label} bars, and — when [trace] is non-empty — per-domain
    utilization (interval-union busy wall time on each trace track divided
    by [wall_secs]). Printed by [fpgapart partition] when a sink is
    enabled. *)
