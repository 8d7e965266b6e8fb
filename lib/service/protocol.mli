(** The request/response vocabulary of the partition service, one layer
    above {!Codec}'s framing.

    Every request is a JSON object [{"v": 3, "verb": ..., ...}]. Replies
    are [{"ok": true, ...}] or [{"ok": false, "error": {"code", "msg"}}];
    the error codes are a closed vocabulary (below) so clients and the
    smoke tests can switch on them without string-matching messages.

    Verbs:
    - [submit]: ["name"], ["format"] ("bench" | "blif" | "verilog"),
      ["netlist"] (the full netlist text) and an optional ["options"]
      object, the stats document's encoding
      ({!Experiments.Obs_report.options_of_json}; absent fields take
      their defaults). Optional envelope fields (v3): ["tenant"] (fair-
      queue tenant id, default "default"), ["priority"] (higher runs
      first within the tenant, default 0) and ["portfolio"] (race the
      job across idle workers, default false; only a worker pool
      races). Reply:
      ["job"] id, ["state"], ["cached"], and the cached ["result"]
      document on a cache hit.
    - [submit-batch] (v3): ["items"], a non-empty array (at most 1024)
      of submit bodies (["name"]/["format"]/["netlist"]/optional
      ["options"]) sharing one envelope, carried in a single frame.
      Reply: ["items"], an array of per-item reply objects in request
      order — each either a submit reply shape or [{"error": {"code",
      "msg"}}] (one full item failing, e.g. on a tenant queue cap, never
      poisons its siblings).
    - [resubmit]: ["name"], a base partition reference (["base_job"] id
      {e or} ["base_digest"] content digest, exactly one), a ["delta"]
      object ([{"ops": [...]}], see {!delta_to_json}) and an optional
      ["options"] object (defaults to the base job's options). Reply: as
      [submit], plus ["cold_fallback"] ([true] when the base's warm
      context was evicted and the job ran cold). The empty delta replies
      with the cached base document byte-identically, without running
      F-M.
    - [status]: ["job"] — reply ["state"] and, while queued,
      ["position"].
    - [result]: ["job"], optional ["wait"] (block until the job leaves
      the queue/run states) — reply the scrubbed ["result"] document plus
      a ["timings"] breakdown (v2): [decode_ms], [queue_wait_ms],
      [run_ms], [encode_ms], [total_ms] — wall-clock, never part of the
      cached result document.
    - [cancel]: ["job"] — request cooperative cancellation.
    - [stats]: server counters, histograms and events as a stats
      document ({!Experiments.Obs_report.schema_version}).
    - [fleet-stats] (v3): the fleet scheduler's view — per-worker states
      and restart counts, per-tenant queue depths, requeue/portfolio
      counters and disk-cache occupancy. A single-process daemon answers
      [bad_request]: there is no fleet to describe.
    - [metrics] (v2): the server's OpenMetrics text exposition
      ({!Obs.Metrics_export}) as a ["metrics"] string field — gauges,
      SLO latency histograms, and every Obs counter/histogram.
    - [health] (v2): liveness probe without submitting work — reply a
      ["health"] object with ["state"] ("accepting" | "draining"),
      ["protocol_version"], ["stats_schema_version"], ["uptime_secs"],
      queue capacity/depth, inflight jobs and cache occupancy.
    - [shutdown]: graceful drain-then-exit. *)

type format = Bench | Blif | Verilog

val parse_netlist : format -> string -> (Netlist.Circuit.t, string) result

type envelope = {
  tenant : string;  (** fair-queue tenant id, 1..64 chars *)
  priority : int;  (** higher dequeues first within the tenant *)
  portfolio : bool;  (** race across idle fleet workers *)
}
(** Submission envelope (v3). The daemon and the fleet both queue on
    [tenant] and [priority] (one fair queue in the shared front end);
    [portfolio] only takes effect on a worker pool, which has workers
    to race — the daemon runs such a job once. *)

val default_envelope : envelope
(** [{tenant = "default"; priority = 0; portfolio = false}] — what an
    envelope-less frame decodes to, and the fields {!request_to_json}
    omits from the wire. *)

type batch_item = {
  b_name : string;
  b_format : format;
  b_netlist : string;
  b_options : Core.Kway.options;
}

type request =
  | Submit of {
      name : string;
      format : format;
      netlist : string;
      options : Core.Kway.options;
      envelope : envelope;
    }
  | Submit_batch of { items : batch_item list; envelope : envelope }
  | Resubmit of {
      name : string;
      base : [ `Job of int | `Digest of string ];
      delta : Netlist.Delta.t;
      options : Core.Kway.options option;  (** [None] inherits the base's *)
    }
  | Status of int
  | Result of { job : int; wait : bool }
  | Cancel of int
  | Stats
  | Fleet_stats
  | Metrics
  | Health
  | Shutdown

val delta_to_json : Netlist.Delta.t -> Obs.Json.t
(** [{"ops": [{"op": "add" | "remove" | "rewire" | "set_output", ...}]}];
    gate kinds spell as in [.bench] files ({!Netlist.Gate.to_string}). *)

val delta_of_json : Obs.Json.t -> (Netlist.Delta.t, string) result
(** Inverse of {!delta_to_json}; [Error] names the offending field. *)

val request_to_json : request -> Obs.Json.t

val request_of_json : Obs.Json.t -> (request, string * string) result
(** [Error (code, msg)]: [code] is {!code_unsupported_version} when the
    frame's ["v"] field is missing, ill-typed or not
    {!protocol_version} (checked before any verb dispatch), and
    {!code_bad_request} for a missing/unknown verb, missing fields, or
    option values {!Core.Kway.Options.make} rejects. *)

val protocol_version : int
(** The wire vocabulary this build speaks (3 since the fleet PR:
    [submit-batch]/[fleet-stats] verbs and the
    tenant/priority/portfolio submission envelope). Every request frame
    carries it as ["v"]. *)

(** {1 Error codes} *)

val code_bad_request : string
(** unparseable frame or request *)

val code_unsupported_version : string
(** request frame whose ["v"] is missing or not {!protocol_version} *)

val code_overloaded : string
(** job queue at [--queue-cap]; resubmit later *)

val code_not_found : string
(** unknown job id *)

val code_pending : string
(** [result] without [wait] on an unfinished job *)

val code_infeasible : string
(** the engine found no feasible partition *)

val code_cancelled : string
(** job cancelled by a [cancel] request *)

val code_timeout : string
(** job exceeded the per-job [--timeout] *)

val code_shutting_down : string
(** submit refused during drain *)

val code_worker_lost : string
(** a fleet worker died while running the job and its single requeue
    credit was already spent (or the job cannot be requeued, e.g. a
    forwarded resubmit whose warm context died with the worker) *)

(** {1 Replies} *)

val ok : (string * Obs.Json.t) list -> Obs.Json.t
(** [{"ok": true, <fields>}]. *)

val error : code:string -> string -> Obs.Json.t
(** [{"ok": false, "error": {"code": <code>, "msg": <msg>}}]. *)

(** {1 Job states} *)

val state_queued : string
val state_running : string
val state_done : string
val state_failed : string
val state_cancelled : string
