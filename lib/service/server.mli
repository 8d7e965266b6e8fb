(** The partitioning daemon: a long-lived server accepting jobs over a
    Unix-domain socket.

    The daemon is the service front end ({!Front}) over an in-process
    backend: a single executor thread that runs jobs in queue order on
    the existing {!Parallel.Pool} machinery (via [jobs] in
    {!Core.Kway.options}). It runs on the front end's settings record as
    it is, so it honours a submission's tenant and priority and the
    configured [tenant_weights]; single-tenant traffic runs FIFO. A
    [submit] past a tenant's [queue_cap] is refused with the typed
    [overloaded] error rather than queued.

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

    The verbs, counters, gauges, SLO histograms, logs, reply timings,
    per-job trace and graceful drain are the front end's, the same on a
    fleet ({!Front}); the executor adds the [service.resubmit_*]
    counters, the [encode_reply] trace span and F-M throughput. *)

type config = Front.config = {
  socket_path : string;
  queue_cap : int;
  cache_cap : int;
  tenant_weights : (string * int) list;
  timeout : float option;
  jobs : int;
  log : Obs.Log.t;
  trace_path : string option;
}

val default_config : socket_path:string -> config
(** {!Front.default_config}. *)

val run :
  ?on_ready:(unit -> unit) ->
  ?external_stop:(unit -> bool) ->
  config ->
  (unit, string) result
(** Bind the socket ({!Front.bind_socket}: stale leftovers are unlinked, a
    live daemon's socket refuses the bind), serve until shutdown, clean
    up, return. [on_ready] fires once the socket is
    listening — tests use it to know when to connect. [external_stop] is
    polled a few times a second by the accept loop; returning [true]
    triggers the same drain as the [shutdown] verb (the CLI passes the
    SIGINT/SIGTERM flag from {!Signals.install_stop_flag}). [Error] only
    when the socket cannot be bound. *)
