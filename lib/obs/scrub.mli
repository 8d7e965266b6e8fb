(** The scrub contract: the one place that names the volatile keys of a
    telemetry document, and the two views of a document built on them.

    A key is volatile when its value may differ between two runs with the
    same seed, or is a derived float whose integral inputs are already in
    the document:
    - ["_secs"]: wall and CPU times (the elapsed fields of reports);
    - ["_per_sec"]: wall-derived rates — a rate histogram such as the
      service's ["service.fm_moves_per_sec"] is volatile whole, count and
      buckets included;
    - ["_util"]: per-axis utilization ratios (schema v5), masked so that
      comparisons are about decisions, not float formatting;
    - ["_ms"], on log lines only: service latencies are integer
      milliseconds so that they survive inside stats documents, but on a
      log line each one is a per-record wall-clock measurement.

    Every comparison of telemetry across runs goes through this module:
    the engine's determinism tests, the service's cached result documents
    and scrubbed logs, and the golden and jobs-independence contracts in
    [test/test_contracts.ml]. *)

type mask =
  | Stats  (** ["_secs"], ["_per_sec"], ["_util"] *)
  | Log  (** [Stats] plus ["_ms"] *)

val null_mask : mask -> Json.t -> Json.t
(** Replace the value of every volatile object field with [Null],
    recursively, and change nothing else: field order, lists and every
    other leaf are kept. Two same-seed runs must agree byte for byte
    after [null_mask Stats]. *)

val stable : Json.t -> Json.t
(** The objective-stable subset of a stats document, which is what the
    goldens in [test/golden/] pin:
    [{"circuit", "seed", "result", "obs"}] where ["result"] and ["obs"]
    have their volatile ([Stats]) keys dropped rather than nulled, and
    ["obs"] folds ["events"] into ["events_md5"] (the md5 hex of
    {!Json.to_compact_string} over the event list with object keys sorted
    recursively) and ["events_len"]. Schema-revision keys
    (["schema_version"], ["options"]) are not part of it. *)
