(** Observability sink for the partitioning engine: named counters,
    a span stack, log2-bucket histograms, a structured event stream,
    and (optionally) a wall-clock trace with per-domain tracks.

    A sink is either the shared {!noop} (the default everywhere — recording
    into it is a single tag test, so instrumented hot paths cost nothing
    when nobody is listening) or a collecting sink from {!create}. The
    engine records into whichever sink the caller passed; the caller reads
    aggregates back through one canonical path, {!Snapshot}, and the
    recorded trace through {!Trace}.

    Conventions that the rest of the system relies on:
    - a span's duration has one clock, the trace: the sink records no
      time of its own, so a {!Snapshot} of the engine's telemetry holds
      counts only and two same-seed runs serialise it byte-identically,
      whatever [jobs] each ran with;
    - every time quantity a document carries beside a snapshot lives
      under a key ending in ["_secs"] (the elapsed fields of reports),
      and every wall-derived rate under a key ending in ["_per_sec"]
      (e.g. the service's ["service.fm_moves_per_sec"] histogram). This
      is what makes the {!Scrub} mask complete and minimal;
    - events record the active span path (["kway/run0/split2"]) in a
      ["span"] field, so a flat event list stays attributable;
    - the trace never enters {!Snapshot.to_json}: wall-clock timestamps,
      track ids and GC deltas are intrinsically execution-dependent, so
      they live in their own artifact ({!Trace.write}) and the stats
      document stays byte-identical across [jobs] settings. *)

type t

val noop : t
(** The do-nothing sink; recording into it is free. *)

val create : ?trace:bool -> unit -> t
(** A fresh collecting sink. With [trace = true] (default [false]) every
    {!span} additionally records begin/end wall-clock timestamps —
    monotonic within the sink, measured relative to the sink's creation
    instant so documents never embed absolute dates — and the GC delta
    ({!Trace.gc_delta}) over the span body; without it a span reads no
    clock. A sink must only be written from one domain at a time;
    parallel recording goes through {!fork}/{!merge_into}. *)

(** The two clocks every elapsed figure in this system comes from. Route
    all timing through here — ad-hoc [Sys.time]/[Unix.gettimeofday] calls
    are how CPU seconds end up labelled as wall clock. A span is timed by
    the trace alone ({!span}); in the partitioning libraries only
    [Kway]'s result stamps ([wall_secs], [cpu_secs]) read these clocks,
    and [tools/lint.sh] keeps it so. *)
module Clock : sig
  val wall : unit -> float
  (** Wall-clock seconds since the epoch ([Unix.gettimeofday]). Under
      parallelism this is the "how long did I wait" clock. *)

  val cpu : unit -> float
  (** Process CPU seconds ([Sys.time]), summed over all domains. Under
      parallelism it exceeds elapsed time. *)
end

val fork : ?pid:int -> ?track:int -> t -> t
(** A private sink for one parallel trial: collecting iff the parent is,
    and starting with the parent's {e current} span path, so events and
    spans recorded in the child carry the same span context they would
    have carried if recorded in the parent at the fork point. The child
    shares no mutable state with the parent — recording into it from
    another domain is safe.

    When the parent traces, the child traces too, against the same epoch;
    [pid] (trace process lane, by convention the run index) and [track]
    (trace thread lane, by convention the {!Parallel.Pool} worker id)
    default to the parent's. They shape only the trace — aggregates and
    events are lane-blind, which is what keeps scrubbed stats independent
    of how trials were scheduled. *)

val merge_into : into:t -> t -> unit
(** [merge_into ~into child] appends everything the child recorded:
    counters and histogram buckets add into the parent's, events
    append after the parent's existing events (preserving the child's
    recording order), trace spans likewise. A driver that forks one child
    per trial and merges them back in trial order reproduces the exact
    event stream of the sequential loop — that is the determinism contract
    of the parallel engine. No-op when either sink is {!noop}. The child
    must be quiescent (its writing domain joined) before merging. *)

val enabled : t -> bool
(** [false] exactly for {!noop}. Hot paths use this to skip building event
    payloads entirely. *)

val incr : ?by:int -> t -> string -> unit
(** Add [by] (default 1) to a named counter. *)

val observe : t -> string -> int -> unit
(** Record one observation into the named histogram. Buckets are fixed
    signed log2 ranges (see {!bucket_of}), so histograms from any two
    sinks merge exactly and the JSON form is deterministic — counts and
    integer sums only, no floats. *)

val span : t -> string -> (unit -> 'a) -> 'a
(** [span t name f] runs [f] inside a named span: the span stack gains
    [name], so events recorded by [f] carry the path, and the stack pops
    even if [f] raises. On a tracing sink the span also records its
    wall-clock begin/end and GC delta as a {!Trace.span}, the one place a
    span is timed; on any other sink it reads no clock. On {!noop} it is
    just [f ()]. *)

val current_span : t -> string
(** Current span path, ["/"]-joined, [""] at top level or on {!noop}. *)

val add_span :
  ?pid:int -> t -> string -> begin_wall:float -> end_wall:float -> unit
(** Append a trace span with explicit bounds, for lifetimes no single call
    scope covers (a queued job's wait spans two threads; its decode happens
    before the job id that names its trace lane exists). The bounds are
    absolute {!Clock.wall} stamps; they are stored relative to the sink's
    epoch like {!span}'s. [pid] defaults to the sink's lane, and the
    span takes the sink's thread lane; the GC
    delta is zero (nobody ran "inside" the span). No-op on a non-tracing
    sink. *)

val event : t -> string -> (string * Json.t) list -> unit
(** Append a structured event. The current span path, when non-empty, is
    prepended to the fields as ["span"]. Callers guard payload construction
    with {!enabled} when the fields are costly to build. *)

(** {1 Histogram buckets} *)

val bucket_of : int -> int
(** Total map from observation to bucket index: [0] for 0, [b > 0] for
    [v] with [2^(b-1) <= v <= 2^b - 1], and [-b] for the mirrored negative
    range. Every int lands in exactly one bucket. *)

val bucket_bounds : int -> int * int
(** Inclusive [(lo, hi)] range of a bucket index, clamped to the int
    range at the extremes. [bucket_bounds (bucket_of v)] contains [v],
    and distinct indices in {!bucket_of}'s image ([-63] to [62] on 63-bit
    ints) have disjoint ranges; indices beyond the image clamp to the
    extreme buckets. *)

val bucket_label : int -> string
(** Human/JSON label: ["0"], ["[1,1]"], ["[4,7]"], ["[-7,-4]"], … *)

(** {1 Reading a sink} *)

module Snapshot : sig
  type event = { name : string; fields : (string * Json.t) list }

  type histogram = {
    count : int;  (** observations *)
    sum : int;    (** sum of observed values *)
    buckets : (int * int) list;
        (** (bucket index, count), sorted by index; counts sum to [count] *)
  }

  type t = {
    counters : (string * int) list;  (** sorted by name *)
    histograms : (string * histogram) list;  (** sorted by name *)
    events : event list;             (** in recording order *)
  }

  val to_json : t -> Json.t
  (** [{"counters": {...}, "histograms": {...}, "events": [...]}]. Each
      histogram serialises as [{"count", "sum", "buckets": {"[lo,hi]": n,
      ...}}]; each event becomes an object with its ["event"] name first,
      then its fields. Deterministic for deterministic recording: the
      sink reads no clock, so only a value a caller records under a
      ["_secs"] or ["_per_sec"] key can vary between identical runs. The
      trace is deliberately absent (see {!Trace}). *)

  val scrub_elapsed : Json.t -> Json.t
  (** [Scrub.null_mask Stats]: null every ["_secs"], ["_per_sec"] and
      ["_util"] field, recursively, and nothing else (see {!Scrub}). Two
      same-seed runs must agree byte-for-byte after this. *)
end

val snapshot : t -> Snapshot.t
(** Read everything recorded so far ({!noop} snapshots empty). The sink
    keeps recording; snapshots are cheap copies. *)

(** {1 Wall-clock tracing}

    Spans recorded by a tracing sink ({!create} with [trace:true]) carry
    wall-clock begin/end timestamps relative to the sink's epoch, a
    [(pid, tid)] lane (by convention: multi-start run, pool worker
    domain), and the GC delta over the span body. {!Trace.write} emits
    them as Chrome trace-event JSON ([ph = "X"] complete events plus
    process/thread name metadata) loadable in Perfetto or
    [chrome://tracing]. *)
module Trace : sig
  type gc_delta = {
    minor_words : float;
    major_words : float;
    minor_collections : int;
    major_collections : int;
  }

  type span = {
    span_name : string;  (** full span path, ["run0/split1/dev-XC3042"] *)
    span_pid : int;      (** trace process lane: the multi-start run *)
    span_tid : int;      (** trace thread lane: the pool worker domain *)
    begin_secs : float;  (** wall clock, relative to the sink epoch *)
    end_secs : float;
    gc : gc_delta;       (** GC activity of the span body *)
  }

  val tracing : t -> bool
  (** Whether the sink records trace spans. *)

  val spans : t -> span list
  (** All recorded spans, sorted by begin time (enclosing span first on
      ties) — so the per-tid timestamp stream is non-decreasing. *)

  val to_json : t -> Json.t
  (** The Chrome trace-event document: [{"displayTimeUnit": "ms",
      "traceEvents": [...]}] with one metadata pair per (pid, tid) lane
      and one ["X"] event per span ([ts]/[dur] in microseconds, GC delta
      in [args]). *)

  val write : path:string -> t -> unit
end

(** {1 OpenMetrics export}

    Renders a {!Snapshot} — plus caller-supplied gauges and explicit-bound
    SLO histograms — as OpenMetrics/Prometheus text exposition format. The
    daemon's [metrics] verb serves this; [fpgapart svc-metrics] dumps it.
    Unlike the stats document, the exported text is wall-clock-honest and
    carries no determinism contract: it exists to be scraped, not
    diffed. *)
module Metrics_export : sig
  (** Cumulative latency histograms over a fixed set of explicit
      millisecond bounds — the shape OpenMetrics expects, kept directly
      (observe is O(#buckets)). The signed-log2 {!observe} histograms
      stay the merge-exact internal representation; these exist for
      human-meaningful SLO bounds at the scrape endpoint. Not
      thread-safe; the daemon observes into them under its state
      mutex. *)
  module Slo : sig
    type t

    val create : ?buckets_ms:int list -> unit -> t
    (** Bounds are sorted and deduplicated; counts start at zero. The
        default is a generic latency ladder, [1ms … 30s]. *)

    val observe : t -> int -> unit
    (** Record one latency in ms (incrementing every bucket whose bound
        it fits under, plus the implicit [+Inf]). *)

    val count : t -> int
    val sum_ms : t -> int

    val buckets : t -> (int * int) list
    (** [(upper bound ms, cumulative count)] in ascending bound order;
        the implicit [+Inf] bucket is {!count}. *)
  end

  type gauge = {
    g_name : string;
    g_help : string;
    g_value : float;
    g_labels : (string * string) list;
        (** rendered as [{k="v",...}] after the family name; label names
            are sanitized, values escaped. Samples of one family (same
            [g_name], different labels) must be listed consecutively —
            they share a single HELP/TYPE header. *)
  }
  (** A point-in-time sample (queue depth, heap words…). Integral values
      render without a decimal point. *)

  val sanitize : string -> string
  (** Map an Obs key to the Prometheus name charset: every character
      outside [[a-zA-Z0-9_]] becomes ['_'], with a leading ['_'] if the
      name starts with a digit. *)

  val render :
    ?prefix:string ->
    ?gauges:gauge list ->
    ?slos:(string * string * Slo.t) list ->
    Snapshot.t ->
    string
  (** The full exposition document, ["# EOF\n"]-terminated. Every family
      name is [prefix ^ "_" ^ sanitize key] ([prefix] defaults to
      ["fpgapart"]). Gauges render first, then [slos] as [(name, help,
      histogram)] triples — recorded in ms, exported in seconds (base
      units) — then the snapshot: counters as [<family>_total] and
      signed-log2 histograms as native-bound histograms with
      cumulative bucket counts. HELP text and label values are escaped
      per the exposition format. *)
end

(** Re-export so users of the sink need only one library dependency. *)
module Json = Json

(** Leveled JSON-lines logging (see {!Log.t}); re-exported like {!Json}
    so [Obs.Log] is the one logging surface. *)
module Log = Log

(** The volatile-key contract and the null and stable views of a
    telemetry document built on it. *)
module Scrub = Scrub
