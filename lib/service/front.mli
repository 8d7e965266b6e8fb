(** The service front end shared by the single-process daemon
    ({!Server}) and the fleet scheduler ([Fleet.Scheduler]).

    It owns everything a client sees: the socket, the accept loop and
    one handler thread per connection; the job table and job ids; the
    per-tenant {!Fair_queue} with its bound; the LRU result cache; the
    verbs [submit], [submit-batch], [status], [result], [cancel],
    [stats], [fleet-stats], [metrics], [health] and [shutdown]; reply
    [timings]; correlation ids and the info-level lifecycle log; the SLO
    histograms and the per-job trace; and the graceful drain: no new
    work is accepted, queued jobs still run, waiting clients get their
    replies. Its settings are one record ({!config}), so every setting
    means the same on both servers.

    What runs a job is a {!backend}, a record of closures: an in-process
    executor (the daemon) or a pool of forked workers (the fleet). A
    backend pops jobs with {!next_job}, reports the run with
    {!record_run} and ends every job through {!finish_job}, so one
    admission path ({!admit}) and one terminal transition count every
    outcome the same way in both servers. A pool backend reports its
    workers and disk cache as data ({!Pool.t}); every reply document,
    the pool's included, is rendered here.

    Shared state is touched only under one lock ({!with_lock}). The
    observability channels each keep a determinism contract:
    - {e structured logs} ({!Obs.Log}): JSON lines with a correlation id
      ([corr] = digest prefix [:] job id) on every lifecycle line.
      Info-level lifecycle events are emitted under the lock, so a
      serialized workload logs them in a deterministic order, and with
      scrub on in deterministic bytes; accept/decode chatter stays at
      debug, outside the contract;
    - {e reply timings}: a wall-clock [timings] breakdown in the reply
      envelope, never inside the cached result document, which keeps
      cache-hit byte identity;
    - {e per-job trace} ([trace_path]): one span lane per job id
      (decode, canonicalise, queue_wait, partition, and the backend's
      own spans), written as a Chrome trace-event file at shutdown;
    - [stats], [metrics] (an OpenMetrics exposition of the same sink
      plus gauges and SLO histograms) and [health], which answers
      without touching the queue. *)

type config = {
  socket_path : string;  (** the public socket *)
  queue_cap : int;  (** max queued (not yet running) jobs per tenant *)
  cache_cap : int;  (** max cached result documents (LRU entries) *)
  tenant_weights : (string * int) list;  (** unlisted tenants weigh 1 *)
  timeout : float option;
      (** per-job wall-clock budget in seconds; past it the engine stops
          at its next pass boundary and the job fails [timeout] *)
  jobs : int;  (** engine domains per job, as [partition --jobs] *)
  log : Obs.Log.t;  (** structured-log sink; {!Obs.Log.null} is silent *)
  trace_path : string option;
      (** write the per-job lifecycle trace here at shutdown *)
}
(** Every [serve] setting the two backends share. The daemon runs on it
    as it is ({!Server.config}); the fleet adds its pool settings around
    it. *)

val default_config : socket_path:string -> config
(** [queue_cap = 16], [cache_cap = 64], no pinned weights, no timeout,
    [jobs = 1], no log sink, no trace. *)

(** A worker pool's state as data, which the front end renders into
    [fleet-stats], [health] and [metrics]: per worker its private socket
    and pid ([-1] once reaped); the disk cache's entries and corrupt
    records skipped. A worker is up when idle or busy. *)
module Pool : sig
  type state = Starting | Idle | Busy | Dead
  type worker =
    { id : int; state : state; pid : int; restarts : int; socket : string }
  type disk = { entries : int; corrupt : int }
  type t = { workers : worker list; disk : disk option }

  val up : state -> bool
end

type state =
  | Queued
  | Running
  | Done of Obs.Json.t
  | Failed of { code : string; msg : string }
  | Cancelled

type 'p job = {
  id : int;
  name : string;
  mutable key : string;
      (** the cache key; a fleet forward rewrites it to the digest its
          worker reports *)
  options : Core.Kway.options;
  envelope : Protocol.envelope;
  payload : 'p;  (** what the backend needs to run the job *)
  cancel : bool Atomic.t;  (** set by [cancel]; engines poll it *)
  received_at : float;
  decode_ms : int;
  mutable enqueued_at : float;
  mutable started_at : float;  (** dequeue (or forward) time *)
  mutable queue_wait_ms : int;
  mutable run_ms : int;
  mutable encode_ms : int;
  mutable total_ms : int;
  mutable state : state;
}

type 'b entry = { doc : Obs.Json.t; basis : 'b }
(** A cached result document plus the backend's context for it (the
    daemon keeps the resubmit basis; the fleet keeps nothing). *)

type ('p, 'b) t = {
  cfg : config;
  mutex : Mutex.t;
  cond : Condition.t;
      (** broadcast on every job state change, enqueue and on stopping *)
  obs : Obs.t;
  trace : Obs.t;  (** lifecycle spans; {!Obs.noop} without a trace path *)
  log : Obs.Log.t;
  slo_queue_wait : Obs.Metrics_export.Slo.t;
  slo_run : Obs.Metrics_export.Slo.t;
  slo_e2e : Obs.Metrics_export.Slo.t;
  up_since : float;
  jobs_tbl : (int, 'p job) Hashtbl.t;  (** never evicts *)
  queue : 'p job Fair_queue.t;
  cache : 'b entry Lru.t;
  mutable next_id : int;
  mutable stopping : bool;
  mutable open_conns : Unix.file_descr list;
}

type ('p, 'b) backend = {
  payload :
    format:Protocol.format ->
    netlist:string ->
    circuit:Netlist.Circuit.t ->
    hypergraph:Hypergraph.t ->
    'p;
      (** a decoded submission's payload; [circuit] is canonical *)
  spill : (string -> 'b entry option) option;
      (** a second cache tier behind the LRU (the fleet's disk cache),
          probed outside the lock; counted as [fleet.disk_cache_*] *)
  resubmit :
    name:string ->
    base:[ `Job of int | `Digest of string ] ->
    delta:Netlist.Delta.t ->
    options:Core.Kway.options option ->
    Obs.Json.t;
  on_cancel : 'p job -> unit -> unit;
      (** called under the lock for a job being cancelled; the returned
          action runs after the lock is released *)
  pool : (unit -> Pool.t) option;
      (** the worker pool's state, sampled under the lock; [None] for a
          backend without a pool, whose [fleet-stats] is refused *)
  start : unit -> unit;  (** once the socket listens: start threads *)
  drain : unit -> unit;
      (** after the accept loop stops: return once every job is
          terminal and the backend's threads are joined *)
}

val create : config -> ('p, 'b) t
val with_lock : ('p, 'b) t -> (unit -> 'a) -> 'a

val ms_since : float -> int
val job_fields : 'p job -> (string * Obs.Json.t) list
(** [job] id and [corr] (digest prefix [:] job id) for a lifecycle line. *)

type stamps = { t_received : float; t_decoded : float; t_keyed : float }
(** Request receipt, end of netlist decode, end of canonicalise-and-
    digest: the job's [decode_ms] and its decode/canonicalise spans. *)

val stamps_at : float -> stamps

val register_job :
  ('p, 'b) t ->
  name:string ->
  key:string ->
  options:Core.Kway.options ->
  envelope:Protocol.envelope ->
  stamps:stamps ->
  payload:'p ->
  state ->
  'p job
(** Spend the next job id. Caller holds the lock. *)

val admit :
  ('p, 'b) t ->
  ('p, 'b) backend ->
  name:string ->
  key:string ->
  options:Core.Kway.options ->
  envelope:Protocol.envelope ->
  stamps:stamps ->
  ?extra:(string * Obs.Json.t) list ->
  ?log_extra:(string * Obs.Json.t) list ->
  ?on_admit:(unit -> unit) ->
  'p ->
  Obs.Json.t
(** The one admission path: the LRU (then the backend's spill tier),
    then the drain refusal, then the tenant's bound ([overloaded]), then
    the enqueue. A refusal spends no job id. [extra] rides on the reply,
    [log_extra] on the enqueue line; [on_admit] runs under the lock just
    before an accepted job is queued. Takes the lock. *)

val next_job : ('p, 'b) t -> ready:(unit -> bool) -> 'p job option
(** Wait for a queued job while [ready ()] holds, pop it, stamp its
    queue wait and mark it [Running]; jobs cancelled while queued are
    finished and skipped. [None] once stopping with an empty queue.
    Caller holds the lock. *)

val record_run : ('p, 'b) t -> 'p job -> unit
(** Stamp [run_ms] since [started_at]; feed the run SLO and the
    "partition" span. Caller holds the lock. *)

val finish_job :
  ?fields:(string * Obs.Json.t) list ->
  ?basis:'b ->
  ('p, 'b) t ->
  'p job ->
  (Obs.Json.t, string * string) result ->
  unit
(** The single terminal transition: [Ok doc] is done (cached when
    [basis] is given), [Error (code, msg)] is cancelled, timed out or
    failed by [code], each with its [service.*] counter and lifecycle
    line ([fields] ride on it). Caller holds the lock. *)

val result_reply : ?extra:(string * Obs.Json.t) list -> 'p job -> Obs.Json.t
(** The [result] reply of a job; [extra] follows its state. Caller
    holds the lock. *)

val job_not_found : int -> Obs.Json.t
val draining_reply : unit -> Obs.Json.t
val inflight : ('p, 'b) t -> int

val bind_socket : string -> (Unix.file_descr, string) result
(** Bind and listen on a Unix-domain socket path. An existing socket
    file is connect-probed first: if a server answers, the bind is
    refused ([Error], never clobbering the live socket); if the connect
    is refused, the file is a stale leftover (e.g. from a SIGKILLed
    process) and is unlinked before binding. *)

val serve :
  ?on_ready:(unit -> unit) ->
  ?external_stop:(unit -> bool) ->
  ('p, 'b) t ->
  ('p, 'b) backend ->
  (unit, string) result
(** Bind, log [server.start], start the backend, serve until [shutdown]
    or [external_stop], then drain: refuse new work, let the backend
    finish every job, close connections, unlink the socket, write the
    trace and log [server.stopped]. [Error] only when the bind fails. *)
