(** The fleet scheduler: the service front end ({!Service.Front}) over
    a forked-worker pool backend. One process owns the public Unix
    socket and fans jobs out to worker processes, each a full
    single-process service engine ({!Service.Server}) on its own private
    socket ([<socket>.worker<i>]). Job table, admission, the weighted
    per-tenant queue, verbs, lifecycle logs, the per-job trace (without
    [encode_reply]: workers run untraced) and drain are the daemon's own
    code, run on the daemon's own settings record; the scheduler reports
    its pool as data ({!Service.Front.Pool.t}) and renders no reply.

    The scheduler itself is I/O-only: it parses, canonicalises and
    digests submissions (deterministic preprocessing — the same code
    path the workers run, so a single-worker fleet replies
    byte-identically to the single-process daemon), but every k-way
    computation happens inside a worker. What the scheduler adds on
    top of the single-process engine:

    - {b Persistent result cache}: an in-memory LRU over a
      {!Disk_cache}; a restart reloads the disk index, keeping the hit
      ratio (and its byte-identical replies) across fleet restarts.
    - {b Portfolio racing}: a submission with [portfolio = true] misses
      the cache onto {e all currently idle} workers at dispatch time,
      each with a derived seed ([seed + i * 65537]); every leg runs to
      the end and the cheapest result wins, so a race lasts as long as
      its slowest leg and its result depends only on the seeds it
      dispatched. A client's cancel reaches every pending leg. Portfolio
      results are not cached — how many legs run depends on how many
      workers were idle, not only on the key.
    - {b Supervision}: dead workers (detected by [waitpid] and by
      health probes of idle workers) are respawned with bounded
      exponential backoff; a job in flight on a dead worker is requeued
      {e exactly once} — a second loss fails it with the typed
      [worker_lost] error, so a poison job cannot crash-loop the fleet
      while the client always gets exactly one reply.

    Every dispatch runs as legs, one per worker it occupies (one for a
    plain job or a forward, one per idle worker for a race), through one
    relay, and ends in one settle step: the cheapest result, else the
    first refusal, else the worker-loss rule above.

    [resubmit] is forwarded, through the same relay as a dispatched
    job, to the worker that computed the base (digest affinity) and
    answers synchronously under the scheduler's job id; its warm context
    lives in that worker's memory, so a worker lost mid-resubmit fails
    with [worker_lost] rather than requeueing cold under warm-lineage
    semantics. *)

type config = {
  service : Service.Front.config;
      (** the daemon's settings; the workers enforce its timeout and
          engine domains *)
  workers : int;  (** pool size, >= 1 *)
  worker_exe : string;
      (** binary spawned as [<exe> serve --socket <private> ...] — the
          CLI passes its own [Sys.executable_name] *)
  cache_dir : string option;  (** persistent cache directory; [None] = off *)
}

val default_config :
  socket_path:string -> workers:int -> worker_exe:string -> config
(** {!Service.Front.default_config} with [queue_cap = 64] per tenant, and
    no disk cache. *)

val run :
  ?on_ready:(unit -> unit) ->
  ?external_stop:(unit -> bool) ->
  config ->
  (unit, string) result
(** Bind the public socket ({!Service.Front.bind_socket} semantics),
    spawn the workers, serve until shutdown (verb or [external_stop]),
    then drain: finish queued and in-flight jobs, shut the workers down
    gracefully (SIGKILL stragglers), close the disk cache, unlink the
    sockets. [on_ready] fires once the public socket listens — workers
    may still be starting; jobs queue until they come up. *)
