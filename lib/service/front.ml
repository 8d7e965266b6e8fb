module J = Obs.Json
module P = Protocol
module Log = Obs.Log
module ME = Obs.Metrics_export

type config = {
  socket_path : string;
  queue_cap : int;
  cache_cap : int;
  tenant_weights : (string * int) list;
  timeout : float option;
  jobs : int;
  log : Log.t;
  trace_path : string option;
}

let default_config ~socket_path =
  {
    socket_path;
    queue_cap = 16;
    cache_cap = 64;
    tenant_weights = [];
    timeout = None;
    jobs = 1;
    log = Log.null;
    trace_path = None;
  }

module Pool = struct
  type state = Starting | Idle | Busy | Dead

  type worker =
    { id : int; state : state; pid : int; restarts : int; socket : string }

  type disk = { entries : int; corrupt : int }
  type t = { workers : worker list; disk : disk option }

  let up = function Idle | Busy -> true | Starting | Dead -> false

  let state_string = function
    | Starting -> "starting"
    | Idle -> "idle"
    | Busy -> "busy"
    | Dead -> "dead"
end

type state =
  | Queued
  | Running
  | Done of J.t
  | Failed of { code : string; msg : string }
  | Cancelled

type 'p job = {
  id : int;
  name : string;
  mutable key : string;
  options : Core.Kway.options;
  envelope : P.envelope;
  payload : 'p;
  cancel : bool Atomic.t;
  received_at : float;
  decode_ms : int;
  mutable enqueued_at : float;
  mutable started_at : float;
  mutable queue_wait_ms : int;
  mutable run_ms : int;
  mutable encode_ms : int;
  mutable total_ms : int;
  mutable state : state;
}

type 'b entry = { doc : J.t; basis : 'b }

type ('p, 'b) t = {
  cfg : config;
  mutex : Mutex.t;
  cond : Condition.t;
  obs : Obs.t;
  trace : Obs.t;
  log : Log.t;
  slo_queue_wait : ME.Slo.t;
  slo_run : ME.Slo.t;
  slo_e2e : ME.Slo.t;
  up_since : float;
  jobs_tbl : (int, 'p job) Hashtbl.t;
  queue : 'p job Fair_queue.t;
  cache : 'b entry Lru.t;
  mutable next_id : int;
  mutable stopping : bool;
  mutable open_conns : Unix.file_descr list;
}

type ('p, 'b) backend = {
  payload :
    format:P.format ->
    netlist:string ->
    circuit:Netlist.Circuit.t ->
    hypergraph:Hypergraph.t ->
    'p;
  spill : (string -> 'b entry option) option;
  resubmit :
    name:string ->
    base:[ `Job of int | `Digest of string ] ->
    delta:Netlist.Delta.t ->
    options:Core.Kway.options option ->
    J.t;
  on_cancel : 'p job -> unit -> unit;
  pool : (unit -> Pool.t) option;
  start : unit -> unit;
  drain : unit -> unit;
}

let create cfg =
  {
    cfg;
    mutex = Mutex.create ();
    cond = Condition.create ();
    obs = Obs.create ();
    trace =
      (match cfg.trace_path with
      | Some _ -> Obs.create ~trace:true ()
      | None -> Obs.noop);
    log = cfg.log;
    slo_queue_wait = ME.Slo.create ();
    slo_run = ME.Slo.create ();
    slo_e2e = ME.Slo.create ();
    up_since = Obs.Clock.wall ();
    jobs_tbl = Hashtbl.create 64;
    queue =
      Fair_queue.create ~weights:cfg.tenant_weights ~cap:cfg.queue_cap ();
    cache = Lru.create ~cap:cfg.cache_cap;
    next_id = 1;
    stopping = false;
    open_conns = [];
  }

(* All shared state — queue, job states, the cache, the Obs sinks and SLO
   histograms (their single-writer contracts) — is touched only under
   this lock. Info-level lifecycle log lines are also emitted under it,
   which gives a serialized workload a deterministic log line order.
   Handler threads and the backend's threads are systhreads on one
   domain, so contention is negligible; partitions run outside the
   lock. *)
let with_lock t f = Mutex.protect t.mutex f

let state_string = function
  | Queued -> P.state_queued
  | Running -> P.state_running
  | Done _ -> P.state_done
  | Failed _ -> P.state_failed
  | Cancelled -> P.state_cancelled

let ms_since t0 =
  int_of_float (Float.round ((Obs.Clock.wall () -. t0) *. 1000.))

(* Correlation id: content digest prefix + job id. Deterministic for a
   deterministic workload (both components are), unique per job, and
   greppable across every lifecycle line the job emits. *)
let corr job =
  let d =
    if String.length job.key > 12 then String.sub job.key 0 12 else job.key
  in
  Printf.sprintf "%s:%d" d job.id

let job_fields job = [ ("job", J.Int job.id); ("corr", J.String (corr job)) ]

(* Wall-clock reply breakdown (protocol v2). The parts and the total are
   measured independently — the total spans received_at to the terminal
   state — so clients can see scheduling gaps. The _ms keys keep these
   out of any scrubbed byte-compare surface (log scrub masks them; the
   cached result document never contains them). *)
let timings_json job =
  J.Obj
    [
      ("decode_ms", J.Int job.decode_ms);
      ("queue_wait_ms", J.Int job.queue_wait_ms);
      ("run_ms", J.Int job.run_ms);
      ("encode_ms", J.Int job.encode_ms);
      ("total_ms", J.Int job.total_ms);
    ]

(* Stamp the end-to-end total and feed its SLO histogram. *)
let stamp_total t job =
  job.total_ms <- ms_since job.received_at;
  Obs.observe t.obs "service.e2e_ms" job.total_ms;
  ME.Slo.observe t.slo_e2e job.total_ms

(* The run phase ended: stamp it from the dequeue, feed the run SLO and
   the job's "partition" trace span. Caller holds the lock. *)
let record_run t job =
  job.run_ms <- ms_since job.started_at;
  Obs.observe t.obs "service.run_ms" job.run_ms;
  ME.Slo.observe t.slo_run job.run_ms;
  Obs.add_span ~pid:job.id t.trace "partition" ~begin_wall:job.started_at
    ~end_wall:(Obs.Clock.wall ())

(* The single terminal transition for a job that went through the queue
   or a forward: state, counter, cache entry, lifecycle line, wake-up.
   Cancellation is [Error (code_cancelled, _)]. Caller holds the lock. *)
let finish_job ?(fields = []) ?basis t job outcome =
  stamp_total t job;
  (match outcome with
  | Ok doc ->
      job.state <- Done doc;
      Option.iter (fun basis -> Lru.add t.cache job.key { doc; basis }) basis;
      Obs.incr t.obs "service.completed";
      Log.info t.log "job.done"
        (job_fields job @ fields
        @ [ ("run_ms", J.Int job.run_ms); ("total_ms", J.Int job.total_ms) ])
  | Error (code, _) when String.equal code P.code_cancelled ->
      job.state <- Cancelled;
      Obs.incr t.obs "service.cancelled";
      Log.info t.log "job.cancelled" (job_fields job @ fields)
  | Error (code, msg) ->
      job.state <- Failed { code; msg };
      Obs.incr t.obs
        (if String.equal code P.code_timeout then "service.timeouts"
         else if String.equal code P.code_bad_request then
           "service.bad_requests"
         else "service.failed");
      Log.warn t.log
        (if String.equal code P.code_timeout then "job.timeout"
         else "job.failed")
        (job_fields job @ fields @ [ ("code", J.String code) ]));
  Condition.broadcast t.cond

(* The wall-clock stamps a handler records on the way to [register_job]:
   request receipt, end of netlist decode, end of
   canonicalise-and-digest. They become the job's [decode_ms] and its
   "decode"/"canonicalise" trace spans. *)
type stamps = { t_received : float; t_decoded : float; t_keyed : float }

let stamps_at t = { t_received = t; t_decoded = t; t_keyed = t }

(* Register a job in the table (caller holds the lock). The table never
   evicts, which is what lets a resubmit recover its base's canonical
   circuit even after the LRU dropped the cached entry. *)
let register_job t ~name ~key ~options ~envelope ~stamps ~payload state =
  let id = t.next_id in
  t.next_id <- id + 1;
  let job =
    {
      id;
      name;
      key;
      options;
      envelope;
      payload;
      cancel = Atomic.make false;
      received_at = stamps.t_received;
      decode_ms =
        int_of_float
          (Float.round ((stamps.t_keyed -. stamps.t_received) *. 1000.));
      enqueued_at = stamps.t_keyed;
      started_at = stamps.t_keyed;
      queue_wait_ms = 0;
      run_ms = 0;
      encode_ms = 0;
      total_ms = 0;
      state;
    }
  in
  Hashtbl.replace t.jobs_tbl id job;
  Obs.add_span ~pid:id t.trace "decode" ~begin_wall:stamps.t_received
    ~end_wall:stamps.t_decoded;
  Obs.add_span ~pid:id t.trace "canonicalise" ~begin_wall:stamps.t_decoded
    ~end_wall:stamps.t_keyed;
  job

(* A request answered from the cache: terminal on arrival. *)
let cached_reply t job ~extra doc =
  stamp_total t job;
  Log.info t.log "job.cache_hit"
    (job_fields job @ [ ("digest", J.String job.key) ]);
  P.ok
    ([
       ("job", J.Int job.id);
       ("state", J.String P.state_done);
       ("cached", J.Bool true);
       ("digest", J.String job.key);
     ]
    @ extra
    @ [ ("timings", timings_json job); ("result", doc) ])

let draining_reply () =
  P.error ~code:P.code_shutting_down
    "server is draining; not accepting new jobs"

(* The one admission path, for every job that goes through the queue:
   the cache (and the backend's spill tier behind it), then the drain
   refusal, then the tenant's queue bound, then the enqueue. A job id is
   spent only on a hit or an accepted job, never on a refusal. [extra]
   rides on the reply, [log_extra] on the enqueue line, and [on_admit]
   runs under the lock just before an accepted job is queued. *)
let admit t b ~name ~key ~options ~envelope ~stamps ?(extra = [])
    ?(log_extra = []) ?(on_admit = ignore) payload =
  let spilled = Option.bind b.spill (fun find -> find key) in
  with_lock t (fun () ->
      let register =
        register_job t ~name ~key ~options ~envelope ~stamps ~payload
      in
      let hit =
        match (Lru.find t.cache key, spilled) with
        | (Some _ as e), _ -> e
        | None, (Some e as spilled) ->
            Obs.incr t.obs "fleet.disk_cache_hit";
            Lru.add t.cache key e;
            spilled
        | None, None -> None
      in
      let tenant = envelope.P.tenant in
      let depth = Fair_queue.depth t.queue tenant in
      match hit with
      | Some { doc; _ } ->
          Obs.incr t.obs "service.cache_hit";
          cached_reply t (register (Done doc)) ~extra doc
      | None ->
          Obs.incr t.obs "service.cache_miss";
          if Option.is_some b.spill then Obs.incr t.obs "fleet.disk_cache_miss";
          if t.stopping then begin
            Log.warn t.log "job.refused_draining" [ ("digest", J.String key) ];
            draining_reply ()
          end
          else if depth >= Fair_queue.cap t.queue then begin
            Obs.incr t.obs "service.rejected";
            Log.warn t.log "job.rejected"
              [
                ("digest", J.String key);
                ("tenant", J.String tenant);
                ("queue_depth", J.Int depth);
              ];
            P.error ~code:P.code_overloaded
              (Printf.sprintf
                 "tenant %s queue is full (%d queued); resubmit later" tenant
                 depth)
          end
          else begin
            on_admit ();
            let job = register Queued in
            job.enqueued_at <- Obs.Clock.wall ();
            ignore
              (Fair_queue.push t.queue ~tenant ~priority:envelope.P.priority
                 job);
            let position = J.Int (Fair_queue.depth t.queue tenant - 1) in
            Log.info t.log "job.enqueue"
              (job_fields job
              @ [ ("name", J.String name); ("digest", J.String key) ]
              @ log_extra
              @ [ ("tenant", J.String tenant); ("position", position) ]);
            Condition.broadcast t.cond;
            P.ok
              ([
                 ("job", J.Int job.id);
                 ("state", J.String P.state_queued);
                 ("cached", J.Bool false);
                 ("digest", J.String key);
               ]
              @ extra
              @ [ ("position", position) ])
          end)

(* Block until a job is queued and [ready ()] holds, then pop it, stamp
   its queue wait and mark it running. A job cancelled while queued is
   finished here and skipped. [None] once draining with an empty queue:
   the queue is always worked off before the backend stops. Caller holds
   the lock. *)
let rec next_job t ~ready =
  if Fair_queue.length t.queue = 0 && t.stopping then None
  else if Fair_queue.length t.queue = 0 || not (ready ()) then begin
    Condition.wait t.cond t.mutex;
    next_job t ~ready
  end
  else
    match Fair_queue.pop t.queue with
    | None -> next_job t ~ready
    | Some job ->
        let dequeued = Obs.Clock.wall () in
        job.queue_wait_ms <- ms_since job.enqueued_at;
        Obs.observe t.obs "service.queue_wait_ms" job.queue_wait_ms;
        ME.Slo.observe t.slo_queue_wait job.queue_wait_ms;
        Obs.add_span ~pid:job.id t.trace "queue_wait"
          ~begin_wall:job.enqueued_at ~end_wall:dequeued;
        if Atomic.get job.cancel then begin
          finish_job t job (Error (P.code_cancelled, ""));
          next_job t ~ready
        end
        else begin
          job.state <- Running;
          job.started_at <- dequeued;
          Log.info t.log "job.dequeue"
            (job_fields job @ [ ("queue_wait_ms", J.Int job.queue_wait_ms) ]);
          Condition.broadcast t.cond;
          Some job
        end

(* ------------------------------------------------------------------ *)
(* Verbs                                                              *)
(* ------------------------------------------------------------------ *)

let job_not_found id =
  P.error ~code:P.code_not_found (Printf.sprintf "no such job: %d" id)

(* Parse, canonicalise, map, digest — then admit. The key and the
   computation see the same canonical node order, so byte-permuted
   inputs share both the cache entry and the exact result bytes. *)
let handle_submit t b ~name ~format ~netlist ~options ~envelope =
  let t_received = Obs.Clock.wall () in
  match P.parse_netlist format netlist with
  | Error msg ->
      with_lock t (fun () ->
          Log.warn t.log "job.decode_failed" [ ("name", J.String name) ]);
      P.error ~code:P.code_bad_request ("netlist: " ^ msg)
  | Ok circuit ->
      let t_decoded = Obs.Clock.wall () in
      let circuit = Digest.canonical_circuit circuit in
      let hypergraph =
        Techmap.Mapper.to_hypergraph (Techmap.Mapper.map circuit)
      in
      let key = Digest.job_key ~library:Fpga.Library.xc3000 ~options hypergraph in
      let stamps = { t_received; t_decoded; t_keyed = Obs.Clock.wall () } in
      admit t b ~name ~key ~options ~envelope ~stamps
        (b.payload ~format ~netlist ~circuit ~hypergraph)

(* A batch is its items submitted in order, each with the full submit
   semantics (cache lookup, backpressure) — one frame in, one reply
   carrying a per-item array out. An item that fails (bad netlist, queue
   full) contributes an {"error": ...} element without poisoning its
   siblings; the client pairs items with replies by index. *)
let handle_submit_batch t b ~items ~envelope =
  let replies =
    List.map
      (fun { P.b_name; b_format; b_netlist; b_options } ->
        match
          handle_submit t b ~name:b_name ~format:b_format ~netlist:b_netlist
            ~options:b_options ~envelope
        with
        | J.Obj (("ok", J.Bool _) :: fields) -> J.Obj fields
        | other -> other)
      items
  in
  with_lock t (fun () ->
      Obs.incr t.obs "service.batches";
      Obs.observe t.obs "service.batch_size" (List.length items));
  P.ok [ ("items", J.List replies) ]

let handle_status t id =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.jobs_tbl id with
      | None -> job_not_found id
      | Some job ->
          let position =
            match job.state with
            | Queued ->
                Fair_queue.position t.queue ~tenant:job.envelope.P.tenant
                  (fun j -> j.id = id)
            | _ -> None
          in
          P.ok
            ([ ("job", J.Int id); ("state", J.String (state_string job.state)) ]
            @ Option.fold ~none:[] ~some:(fun p -> [ ("position", J.Int p) ])
                position))

(* A terminal job's reply; [extra] follows the state. Caller holds the
   lock. *)
let result_reply ?(extra = []) job =
  match job.state with
  | Queued | Running ->
      P.error ~code:P.code_pending
        (Printf.sprintf "job %d is %s" job.id (state_string job.state))
  | Done doc ->
      P.ok
        ([ ("job", J.Int job.id); ("state", J.String P.state_done) ]
        @ extra
        @ [ ("timings", timings_json job); ("result", doc) ])
  | Failed { code; msg } -> P.error ~code msg
  | Cancelled ->
      P.error ~code:P.code_cancelled
        (Printf.sprintf "job %d was cancelled" job.id)

let handle_result t ~id ~wait =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.jobs_tbl id with
      | None -> job_not_found id
      | Some job ->
          (* The backend works the queue off even while stopping, so
             every job reaches a terminal state and this wait ends. *)
          if wait then
            while match job.state with Queued | Running -> true | _ -> false do
              Condition.wait t.cond t.mutex
            done;
          result_reply job)

(* The backend notices a cancel: a queued job is skipped when popped, a
   running one aborts at its engine's next should_stop poll, and the
   backend's [on_cancel] action (forwarding to a worker) runs outside
   the lock. *)
let handle_cancel t b id =
  let reply, action =
    with_lock t (fun () ->
        match Hashtbl.find_opt t.jobs_tbl id with
        | None -> (job_not_found id, ignore)
        | Some job ->
            let cancelling =
              match job.state with Queued | Running -> true | _ -> false
            in
            let action =
              if cancelling then begin
                Atomic.set job.cancel true;
                Log.info t.log "job.cancel" (job_fields job);
                Condition.broadcast t.cond;
                b.on_cancel job
              end
              else ignore
            in
            ( P.ok
                [
                  ("job", J.Int id);
                  ("state", J.String (state_string job.state));
                  ("cancelling", J.Bool cancelling);
                ],
              action ))
  in
  action ();
  reply

let cache_json t =
  J.Obj [ ("len", J.Int (Lru.length t.cache)); ("cap", J.Int (Lru.cap t.cache)) ]

let schema_version = J.Int Experiments.Obs_report.schema_version
let obs_json t = Obs.Snapshot.to_json (Obs.snapshot t.obs)

let handle_stats t =
  with_lock t (fun () ->
      P.ok
        [
          ( "stats",
            J.Obj
              [
                ("schema_version", schema_version);
                ("artifact", J.String "service.stats");
                ("queue_len", J.Int (Fair_queue.length t.queue));
                ("queue_cap", J.Int t.cfg.queue_cap);
                ("cache", cache_json t);
                ("obs", obs_json t);
              ] );
        ])

let inflight t =
  Hashtbl.fold
    (fun _ j acc -> match j.state with Running -> acc + 1 | _ -> acc)
    t.jobs_tbl 0

(* The [fleet-stats] document: the pool's workers and disk cache beside
   the front end's tenants, queue and cache. *)
let handle_fleet_stats t b =
  match b.pool with
  | None ->
      P.error ~code:P.code_bad_request
        "fleet-stats requires a fleet scheduler (serve --workers N)"
  | Some pool ->
      with_lock t (fun () ->
          let { Pool.workers; disk } = pool () in
          let worker (w : Pool.worker) =
            J.Obj
              [
                ("id", J.Int w.id);
                ("state", J.String (Pool.state_string w.state));
                ("pid", J.Int w.pid);
                ("restarts", J.Int w.restarts);
                ("socket", J.String w.socket);
              ]
          in
          let tenant (name, depth) =
            J.Obj
              [
                ("tenant", J.String name);
                ("depth", J.Int depth);
                ("weight", J.Int (Fair_queue.weight t.queue name));
              ]
          in
          let disk_json { Pool.entries; corrupt } =
            J.Obj [ ("len", J.Int entries); ("corrupt_skipped", J.Int corrupt) ]
          in
          P.ok
            [
              ( "fleet",
                J.Obj
                  [
                    ("schema_version", schema_version);
                    ("artifact", J.String "service.fleet_stats");
                    ("workers", J.List (List.map worker workers));
                    ( "tenants",
                      J.List (List.map tenant (Fair_queue.tenants t.queue)) );
                    ("queue_len", J.Int (Fair_queue.length t.queue));
                    ("tenant_cap", J.Int t.cfg.queue_cap);
                    ("inflight", J.Int (inflight t));
                    ("cache", cache_json t);
                    ( "disk_cache",
                      Option.fold disk ~none:J.Null ~some:disk_json );
                    ("obs", obs_json t);
                  ] );
            ])

let gauge ?(labels = []) g_name g_help g_value =
  { ME.g_name; g_help; g_value; g_labels = labels }

(* A pool's gauges, after the front end's. *)
let pool_gauges t { Pool.workers; disk } =
  let per_worker name help value =
    List.map
      (fun (w : Pool.worker) ->
        gauge ~labels:[ ("worker", string_of_int w.id) ] name help (value w))
      workers
  in
  let disk =
    match disk with
    | None -> []
    | Some { Pool.entries; corrupt } ->
        [
          gauge "fleet_disk_cache_entries"
            "Result documents indexed in the persistent cache."
            (float_of_int entries);
          gauge "fleet_disk_cache_corrupt_skipped"
            "Corrupt records skipped since startup." (float_of_int corrupt);
        ]
  in
  gauge "fleet_workers" "Configured worker pool size."
    (float_of_int (List.length workers))
  :: per_worker "fleet_worker_up" "1 when the worker answers, 0 otherwise."
       (fun w -> if Pool.up w.state then 1.0 else 0.0)
  @ per_worker "fleet_worker_restarts" "Times this worker was respawned."
      (fun w -> float_of_int w.restarts)
  @ List.map
      (fun (tenant, depth) ->
        gauge
          ~labels:[ ("tenant", tenant) ]
          "fleet_tenant_queue_depth" "Jobs queued per tenant."
          (float_of_int depth))
      (Fair_queue.tenants t.queue)
  @ disk

(* The OpenMetrics exposition (the [metrics] verb). Counters and
   histograms come straight from the Obs snapshot; gauges are sampled
   here, under the lock, so depth/inflight/cache readings are a
   consistent cut of server state. A pool's gauges follow. *)
let handle_metrics t b =
  with_lock t (fun () ->
      let snap = Obs.snapshot t.obs in
      let counter k =
        try List.assoc k snap.Obs.Snapshot.counters with Not_found -> 0
      in
      let hits = counter "service.cache_hit" in
      let lookups = hits + counter "service.cache_miss" in
      let g = Gc.quick_stat () in
      let gauges =
        [
          gauge "queue_depth" "Jobs queued and not yet running."
            (float_of_int (Fair_queue.length t.queue));
          gauge "queue_capacity" "Per-tenant queue bound."
            (float_of_int t.cfg.queue_cap);
          gauge "inflight_jobs" "Jobs currently running."
            (float_of_int (inflight t));
          gauge "cache_entries" "Result documents held by the LRU cache."
            (float_of_int (Lru.length t.cache));
          gauge "cache_capacity" "LRU cache bound."
            (float_of_int (Lru.cap t.cache));
          gauge "cache_hit_ratio" "Cache hits over hits + misses."
            (if lookups = 0 then 0.0
             else float_of_int hits /. float_of_int lookups);
          gauge "jobs_registered" "Jobs accepted since startup."
            (float_of_int (t.next_id - 1));
          gauge "uptime_seconds" "Wall-clock seconds since startup."
            (Obs.Clock.wall () -. t.up_since);
          gauge "gc_heap_words" "Gc.quick_stat heap words (live major heap)."
            (float_of_int g.Gc.heap_words);
          gauge "gc_major_collections" "Major GC cycles since startup."
            (float_of_int g.Gc.major_collections);
          gauge "gc_minor_collections" "Minor GC cycles since startup."
            (float_of_int g.Gc.minor_collections);
        ]
        @ Option.fold b.pool ~none:[] ~some:(fun pool ->
              pool_gauges t (pool ()))
      in
      let slos =
        [
          ( "service_queue_wait_seconds",
            "Time from enqueue to dequeue per executed job.",
            t.slo_queue_wait );
          ("service_run_seconds", "Run time per executed job.", t.slo_run);
          ( "service_e2e_seconds",
            "Request decode to terminal job state, end to end.",
            t.slo_e2e );
        ]
      in
      P.ok [ ("metrics", J.String (ME.render ~gauges ~slos snap)) ])

let handle_health t b =
  with_lock t (fun () ->
      let pool =
        match Option.map (fun pool -> pool ()) b.pool with
        | None -> []
        | Some { Pool.workers; _ } ->
            let up = List.filter (fun (w : Pool.worker) -> Pool.up w.state) in
            [
              ("workers", J.Int (List.length workers));
              ("workers_up", J.Int (List.length (up workers)));
            ]
      in
      P.ok
        [
          ( "health",
            J.Obj
              ([
                 ( "state",
                   J.String (if t.stopping then "draining" else "accepting") );
                 ("protocol_version", J.Int P.protocol_version);
                 ("stats_schema_version", schema_version);
                 ("uptime_secs", J.Float (Obs.Clock.wall () -. t.up_since));
                 ("queue_depth", J.Int (Fair_queue.length t.queue));
                 ("queue_cap", J.Int t.cfg.queue_cap);
                 ("inflight", J.Int (inflight t));
                 ("cache", cache_json t);
                 ("jobs_total", J.Int (t.next_id - 1));
               ]
              @ pool) );
        ])

(* Enter the drain (once: the verb and a signal may both ask). Caller
   holds the lock. *)
let stop t =
  if not t.stopping then begin
    t.stopping <- true;
    Log.info t.log "server.drain"
      [ ("queue_depth", J.Int (Fair_queue.length t.queue)) ];
    Condition.broadcast t.cond
  end

let handle_shutdown t =
  with_lock t (fun () ->
      stop t;
      P.ok [ ("stopping", J.Bool true) ])

let dispatch t b = function
  | P.Submit { name; format; netlist; options; envelope } ->
      handle_submit t b ~name ~format ~netlist ~options ~envelope
  | P.Submit_batch { items; envelope } -> handle_submit_batch t b ~items ~envelope
  | P.Resubmit { name; base; delta; options } ->
      b.resubmit ~name ~base ~delta ~options
  | P.Status id -> handle_status t id
  | P.Result { job; wait } -> handle_result t ~id:job ~wait
  | P.Cancel id -> handle_cancel t b id
  | P.Stats -> handle_stats t
  | P.Fleet_stats -> handle_fleet_stats t b
  | P.Metrics -> handle_metrics t b
  | P.Health -> handle_health t b
  | P.Shutdown -> handle_shutdown t

let verb_name = function
  | P.Submit _ -> "submit"
  | P.Submit_batch _ -> "submit-batch"
  | P.Fleet_stats -> "fleet-stats"
  | P.Resubmit _ -> "resubmit"
  | P.Status _ -> "status"
  | P.Result _ -> "result"
  | P.Cancel _ -> "cancel"
  | P.Stats -> "stats"
  | P.Metrics -> "metrics"
  | P.Health -> "health"
  | P.Shutdown -> "shutdown"

(* ------------------------------------------------------------------ *)
(* Connections                                                        *)
(* ------------------------------------------------------------------ *)

let forget_conn t fd =
  with_lock t (fun () ->
      t.open_conns <- List.filter (fun fd' -> fd' <> fd) t.open_conns);
  try Unix.close fd with Unix.Unix_error _ -> ()

let frame_error err =
  P.error ~code:P.code_bad_request (Codec.read_error_to_string err)

(* One thread per connection; frames are handled in order. A bad frame
   gets an error reply and the connection is closed (the stream position
   is unknowable); a bad *request* in a good frame only costs an error
   reply — the connection survives. Accept/decode logging stays at debug:
   its interleaving across handler threads is scheduling-dependent, so
   only the info-level lifecycle stream (emitted under the state lock) is
   held to the byte-determinism contract. *)
let rec handle_conn t b fd =
  match Codec.read_frame fd with
  | Error `Eof -> forget_conn t fd
  | Error err ->
      with_lock t (fun () ->
          Obs.incr t.obs "service.bad_requests";
          Log.warn t.log "request.bad_frame" []);
      (try ignore (Codec.write_frame fd (frame_error err))
       with Unix.Unix_error _ -> ());
      forget_conn t fd
  | Ok json -> (
      with_lock t (fun () -> Obs.incr t.obs "service.requests");
      let reply =
        match P.request_of_json json with
        | Error (code, msg) ->
            with_lock t (fun () ->
                Obs.incr t.obs "service.bad_requests";
                Log.warn t.log "request.bad" [ ("code", J.String code) ]);
            P.error ~code msg
        | Ok req ->
            Log.debug t.log "request.decode"
              [ ("verb", J.String (verb_name req)) ];
            dispatch t b req
      in
      (* A reply past the frame cap is not sent; the client is told why. *)
      match
        match Codec.write_frame fd reply with
        | Error err -> Codec.write_frame fd (frame_error err)
        | ok -> ok
      with
      | Ok () -> handle_conn t b fd
      | Error _ | exception Unix.Unix_error _ -> forget_conn t fd)

(* ------------------------------------------------------------------ *)
(* Accept loop and lifecycle                                          *)
(* ------------------------------------------------------------------ *)

(* A SIGKILLed daemon leaves its socket file behind, and blindly
   unlinking it would clobber a *live* daemon's socket instead. Probe
   with connect first: success means someone is accepting on the path
   (refuse to bind); ECONNREFUSED means nothing is listening, so the
   file is a stale leftover and safe to unlink. *)
let bind_socket path =
  let probe_existing () =
    match Unix.lstat path with
    | { Unix.st_kind = Unix.S_SOCK; _ } -> (
        let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Fun.protect
          ~finally:(fun () ->
            try Unix.close probe with Unix.Unix_error _ -> ())
          (fun () ->
            match Unix.connect probe (Unix.ADDR_UNIX path) with
            | () -> `Live
            | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _) -> `Stale
            | exception Unix.Unix_error _ -> `Leave))
    | _ -> `Leave
    | exception Unix.Unix_error (Unix.ENOENT, _, _) -> `Absent
  in
  match probe_existing () with
  | `Live ->
      Error
        (Printf.sprintf
           "cannot bind %s: a live daemon is already accepting on it" path)
  | (`Stale | `Leave | `Absent) as probed ->
      (if probed = `Stale then
         try Unix.unlink path with Unix.Unix_error _ -> ());
      let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.bind sock (Unix.ADDR_UNIX path) with
  | () ->
      Unix.listen sock 16;
      Ok sock
  | exception Unix.Unix_error (e, _, _) ->
      (try Unix.close sock with Unix.Unix_error _ -> ());
      Error
        (Printf.sprintf "cannot bind %s: %s" path (Unix.error_message e))

let serve ?(on_ready = fun () -> ()) ?(external_stop = fun () -> false) t b =
  (* A client that disconnects before reading its reply must surface as
     [EPIPE] in the connection handler, not as a process-killing
     SIGPIPE. *)
  ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore);
  match bind_socket t.cfg.socket_path with
  | Error _ as e -> e
  | Ok sock ->
      with_lock t (fun () ->
          Log.info t.log "server.start"
            [
              ("protocol_version", J.Int P.protocol_version);
              ("queue_cap", J.Int t.cfg.queue_cap);
              ("cache_cap", J.Int t.cfg.cache_cap);
            ]);
      b.start ();
      on_ready ();
      let conn_threads = ref [] in
      let rec accept_loop () =
        if external_stop () then with_lock t (fun () -> stop t)
        else if with_lock t (fun () -> t.stopping) then ()
        else
          match Unix.select [ sock ] [] [] 0.2 with
          | [], _, _ -> accept_loop ()
          | _ -> (
              match Unix.accept sock with
              | fd, _ ->
                  with_lock t (fun () ->
                      t.open_conns <- fd :: t.open_conns;
                      Log.debug t.log "conn.accept" []);
                  conn_threads :=
                    Thread.create (handle_conn t b) fd :: !conn_threads;
                  accept_loop ()
              | exception Unix.Unix_error (Unix.EINTR, _, _) ->
                  accept_loop ())
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop ()
      in
      accept_loop ();
      with_lock t (fun () ->
          t.stopping <- true;
          Condition.broadcast t.cond);
      (* Drain: the backend works the queue off and every job reaches a
         terminal state, so waiting clients get their replies. *)
      b.drain ();
      (* Idle connections would park their handlers in read() forever;
         shutting the sockets down turns that into a clean EOF. *)
      with_lock t (fun () -> t.open_conns)
      |> List.iter (fun fd ->
             try Unix.shutdown fd Unix.SHUTDOWN_ALL
             with Unix.Unix_error _ -> ());
      List.iter Thread.join !conn_threads;
      (try Unix.close sock with Unix.Unix_error _ -> ());
      (try Unix.unlink t.cfg.socket_path with Unix.Unix_error _ -> ());
      Option.iter (fun path -> Obs.Trace.write ~path t.trace) t.cfg.trace_path;
      with_lock t (fun () ->
          Log.info t.log "server.stopped"
            [ ("jobs_total", J.Int (t.next_id - 1)) ]);
      Ok ()
