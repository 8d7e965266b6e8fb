(** Aggregation of partitioning telemetry into the stable JSON document
    behind [fpgapart partition --stats-json] and the service's result
    documents.

    Schema (version 6) of a per-circuit document:
    - ["schema_version"]: [6];
    - ["circuit"], ["seed"]: identification;
    - ["options"]: the {!Core.Kway.options} used ([runs], [seed],
      [replication], [max_passes], [fm_attempts], [refine_rounds],
      new in v5 ["objective"] — the {!Fpga.Objective} name — and new in
      v6 ["strategy"] — ["flat"] or the multilevel knob object
      [{max_levels; coarsen_ratio; refine_passes}]; both are part of
      the result's identity and therefore of the service's options
      fingerprint). [jobs] is deliberately omitted: it is an execution
      knob that never shapes the result, and its absence is what lets the
      determinism gate require byte-identical scrubbed documents across
      [--jobs] settings;
    - ["result"]: outcome summary — [num_partitions], [total_cost],
      [avg_clb_utilization], [avg_iob_utilization], [total_clbs],
      [total_iobs], [replicated_cells], [total_cells], [feasible_runs],
      [wall_secs], [cpu_secs] (wall-clock vs all-domain process CPU; v1's
      single [elapsed_secs] claimed CPU seconds, which parallelism made
      wrong), new in v5 a ["resource_util"] object of per-axis aggregate
      utilizations (every key ends in [_util] and is masked by the
      determinism scrub — derived ratios, like the timers), and a
      ["parts"] list of [{device, clbs, iobs}];
    - ["obs"]: the {!Obs.Snapshot} — ["counters"] (including, new in v4,
      ["fm.rescored_cells"] — best-op recomputations triggered by applied
      moves, the cost the criticality-filtered incremental rescoring is
      bounding), ["timers"], ["histograms"] (new in v3: name →
      [{"count"; "sum"; "buckets"}] with signed-log2 bucket labels, all
      integers — see {!Obs.observe}; new in v4: ["fm.moves_per_sec"], a
      wall-derived rate histogram masked by the determinism scrub), and
      the ordered ["events"] stream (["fm.pass"], ["kway.device_attempt"],
      ["kway.split"], ["kway.refine_pair"], ...).

    Every elapsed-time field ends in ["_secs"] and every wall-derived
    rate in ["_per_sec"]; after {!Obs.Snapshot.scrub_elapsed} two
    same-seed documents are byte-identical — whatever [jobs] each ran
    with. The wall-clock trace a
    tracing sink records ({!Obs.Trace}) is deliberately {e absent} from
    this document: begin/end timestamps, domain track ids and GC deltas
    are execution-dependent, so they live only in the separate [--trace]
    artifact. *)

val schema_version : int

val options_to_json : Core.Kway.options -> Obs.Json.t

val result_to_json : Core.Kway.result -> Obs.Json.t

val doc :
  name:string ->
  options:Core.Kway.options ->
  result:Core.Kway.result ->
  snapshot:Obs.Snapshot.t ->
  Obs.Json.t
(** Assemble the per-circuit document from an already-finished run (the
    CLI path: it has the result and the sink in hand). *)

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
