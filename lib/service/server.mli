(** The partitioning daemon: a long-lived server accepting jobs over a
    Unix-domain socket.

    The daemon is the service front end ({!Front}: accept loop, one
    handler thread per connection, job table, verbs, drain) over an
    in-process backend: a single executor thread that runs jobs in
    queue order on the existing {!Parallel.Pool} machinery (via [jobs]
    in {!Core.Kway.options}). The queue is the front end's per-tenant
    {!Fair_queue}, so the daemon honours a submission's tenant and
    priority; single-tenant traffic runs FIFO. It is bounded per
    tenant: a [submit] past [queue_cap] is refused with the typed
    [overloaded] error rather than queued — backpressure instead of
    unbounded memory.

    Results are cached in an LRU keyed by {!Digest.job_key}, computed on
    the {e canonicalised} circuit ({!Digest.canonical_circuit}), so two
    submissions of semantically identical netlists — even with permuted
    lines — share one computation. The cached document is the scrubbed
    result document ({!Obs.Snapshot.scrub_elapsed}), so a cache hit
    replies byte-identically to the miss that populated it.

    A [resubmit] applies a {!Netlist.Delta} to a base job's canonical
    circuit and warm-starts the k-way driver from the base partition
    projected onto the edit ({!Core.Kway.warm_start}), falling back to a
    cold run — flagged [cold_fallback] in the reply — when the base's
    cached context was evicted. Warm results cache under a
    {!Digest.lineage_key} (base key × edited key) so they never collide
    with the cold key's byte-determinism contract; the empty delta
    replies with the cached base document verbatim, running nothing.

    Every request, hit, miss, rejection, cancellation, timeout, and the
    queue-wait / run-time distributions are recorded through {!Obs} and
    exposed by the [stats] verb ([service.resubmit_*] counters cover the
    incremental path). The [metrics] verb renders the same sink — plus
    live gauges (queue depth, inflight, cache occupancy, GC) and SLO
    latency histograms for queue-wait / run / end-to-end — as an
    OpenMetrics text exposition ({!Obs.Metrics_export}), and [health]
    answers a liveness probe without touching the queue.

    Observability is layered on three channels, each with its own
    determinism contract:
    - {e Structured logs} ({!Obs.Log}): JSON lines with a per-job
      correlation id ([corr] = digest prefix [:] job id) on every
      lifecycle line. Info-level lifecycle events (cache_hit, enqueue,
      dequeue, done/failed/timeout/cancelled, drain) are emitted under
      the state lock, so a serialized workload logs them in a
      deterministic order; with scrub on, the line bytes are
      deterministic too. Accept/decode chatter stays at debug, outside
      the contract.
    - {e Reply timings} (protocol v2): every [result]/cached reply
      carries a wall-clock [timings] breakdown in the reply envelope —
      never inside the cached result document, which keeps cache-hit
      byte-identity intact.
    - {e Per-job trace} ([trace_path]): one span lane per job id with
      the decode → canonicalise → queue_wait → partition → encode_reply
      lifecycle, written as a Chrome trace-event file at shutdown.

    Shutdown (the [shutdown] verb, or SIGINT/SIGTERM via
    [external_stop]) is a graceful drain: no new connections or
    submissions are accepted, queued jobs still run to completion (a
    [cancel] can empty the queue faster), waiting clients get their
    replies, then the socket is unlinked and {!run} returns. *)

type config = {
  socket_path : string;
  queue_cap : int;  (** max queued (not yet running) jobs per tenant *)
  cache_cap : int;  (** max cached result documents *)
  timeout : float option;
      (** per-job wall-clock budget in seconds; exceeding it fails the
          job with the [timeout] error code (cooperatively — the engine
          stops at the next pass boundary) *)
  jobs : int;
      (** domains per job (positive), as [fpgapart partition --jobs] *)
  log : Obs.Log.t;
      (** structured-log sink; {!Obs.Log.null} silences the server *)
  trace_path : string option;
      (** when set, write the per-job lifecycle trace (Chrome
          trace-event JSON) here at shutdown *)
}

val default_config : socket_path:string -> config
(** [queue_cap = 16], [cache_cap = 64], no timeout, [jobs = 1], no log
    sink, no trace. *)

val bind_socket : string -> (Unix.file_descr, string) result
(** Bind and listen on a Unix-domain socket path. An existing socket
    file is connect-probed first: if a daemon answers, the bind is
    refused ([Error], never clobbering the live socket); if the connect
    is refused, the file is a stale leftover (e.g. from a SIGKILLed
    process) and is unlinked before binding. The fleet scheduler binds its
    public socket the same way. *)

val run :
  ?on_ready:(unit -> unit) ->
  ?external_stop:(unit -> bool) ->
  config ->
  (unit, string) result
(** Bind the socket ({!bind_socket}: stale leftovers are unlinked, a
    live daemon's socket refuses the bind), serve until shutdown, clean
    up, return. [on_ready] fires once the socket is
    listening — tests use it to know when to connect. [external_stop] is
    polled a few times a second by the accept loop; returning [true]
    triggers the same drain as the [shutdown] verb (the CLI passes the
    SIGINT/SIGTERM flag from {!Signals.install_stop_flag}). [Error] only
    when the socket cannot be bound. *)
