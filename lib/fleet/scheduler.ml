module J = Obs.Json
module P = Service.Protocol
module C = Service.Client
module F = Service.Front
module Fq = Service.Fair_queue
module Log = Obs.Log

type config = {
  service : F.config;
  workers : int;
  worker_exe : string;
  cache_dir : string option;
}

let default_config ~socket_path ~workers ~worker_exe =
  {
    service = { (F.default_config ~socket_path) with queue_cap = 64 };
    workers;
    worker_exe;
    cache_dir = None;
  }

(* ------------------------------------------------------------------ *)
(* State                                                              *)
(* ------------------------------------------------------------------ *)

type wstate = F.Pool.state = Starting | Idle | Busy | Dead

type worker = {
  w_id : int;
  w_socket : string;
  mutable w_pid : int;  (* -1 once reaped *)
  mutable w_state : wstate;
  mutable w_job : int option;  (* front-end job id in flight *)
  mutable w_restarts : int;
  mutable w_backoff : float;  (* next respawn delay, seconds *)
  mutable w_not_before : float;  (* wall clock gating the respawn *)
}

(* One leg of a dispatch: the job's request on one worker. A plain job
   and a forwarded resubmit run one leg, a portfolio race one per idle
   worker. [wjob] is the worker-side job id, for cancels; a leg's outcome
   is the worker's result document with its first reply, its typed
   refusal, or [`Lost] with the worker. *)
type leg = {
  worker : int;
  mutable wjob : int option;
  mutable outcome :
    [ `Pending | `Doc of J.t * J.t | `Err of string * string | `Lost ];
}

(* What a worker is asked to do: run a submitted netlist, or apply a
   resubmit to a base it (hopefully) still holds. The pool keeps only
   netlist text per job — the hypergraph it digested is dropped. *)
type work =
  | Run of { format : P.format; netlist : string }
  | Forward of {
      base : string;
      delta : Netlist.Delta.t;
      options : Core.Kway.options option;
    }

type payload = {
  work : work;
  mutable requeued : bool;
  mutable legs : leg list;  (* the current dispatch's, in seed order *)
  mutable forwarded : (string * J.t) list;
      (* a forward's reply fields from the worker: cached, digest,
         cold_fallback *)
}

type job = payload F.job

type pool = {
  cfg : config;
  t : (payload, unit) F.t;
  disk : Disk_cache.t option;
  affinity : (string, int) Hashtbl.t;  (* digest -> worker that computed it *)
  workers : worker array;
  mutable supervising : bool;
}

let payload work = { work; requeued = false; legs = []; forwarded = [] }

(* Only a plain submit's result is cached: a race's winner depends on
   racing, not only on the key, and a forward's result stays with the
   worker that holds its lineage. *)
let cacheable (job : job) =
  match job.payload.work with
  | Run _ -> not job.envelope.P.portfolio
  | Forward _ -> false

(* ------------------------------------------------------------------ *)
(* Settle: the one terminal step of a dispatched job                  *)
(* ------------------------------------------------------------------ *)

(* Once no leg of [job] is pending, end it. The cheapest result wins (a
   single leg's result is its own); with no result, the first refusal.
   With neither, every leg lost its worker and the exactly-once rule
   applies: a plain job's first loss re-enqueues it (its single credit);
   a second loss — or a loss during drain, when the queue no longer
   accepts work — fails it with the typed [worker_lost] code, so the
   waiting client still gets exactly one terminal reply (a job its
   client cancelled ends cancelled). A forward never requeues: its warm
   context died with the worker. A race spent its credit on the race
   itself. Caller holds the lock. *)
let settle_locked p (job : job) =
  let legs = job.payload.legs in
  if job.state = F.Running && List.for_all (fun l -> l.outcome <> `Pending) legs
  then begin
    let t = p.t and race = job.envelope.P.portfolio in
    let fields =
      if race then [ ("racers", J.Int (List.length legs)) ]
      else List.map (fun l -> ("worker", J.Int l.worker)) legs
    in
    let finish ?basis outcome =
      F.record_run t job;
      F.finish_job ~fields ?basis t job outcome
    in
    let lost msg = F.finish_job t job (Error (P.code_worker_lost, msg)) in
    let cost doc =
      Option.bind (Option.bind (J.member "result" doc) (J.member "total_cost"))
        J.to_float
      |> Option.value ~default:Float.max_float
    in
    let best =
      List.fold_left
        (fun acc l ->
          match (l.outcome, acc) with
          | `Doc (doc, _), Some (_, (prev, _)) when cost doc >= cost prev -> acc
          | `Doc d, _ -> Some (l, d)
          | _ -> acc)
        None legs
    in
    let refusal =
      List.find_map
        (fun l -> match l.outcome with `Err e -> Some e | _ -> None)
        legs
    in
    match (best, refusal) with
    | Some (leg, (doc, first)), _ ->
        if race then Obs.incr t.obs "fleet.portfolio_won"
        else begin
          (match job.payload.work with
          | Run _ -> ()
          | Forward _ ->
              (* The reply names the result's own digest: the lineage
                 key of a warm run, the edited circuit's of a cold one. *)
              Option.iter
                (fun d -> job.key <- d)
                (Option.bind (J.member "digest" first) J.to_str);
              job.payload.forwarded <-
                List.filter
                  (fun (k, _) ->
                    List.mem k [ "cached"; "digest"; "cold_fallback" ])
                  (match first with J.Obj f -> f | _ -> []));
          Hashtbl.replace p.affinity job.key leg.worker
        end;
        finish ?basis:(if cacheable job then Some () else None) (Ok doc)
    | None, Some e -> finish (Error e)
    | None, None when race ->
        finish
          (Error
             ( P.code_worker_lost,
               "every portfolio worker died while racing this job" ))
    | None, None -> (
        match job.payload.work with
        | _ when Atomic.get job.cancel ->
            F.finish_job t job (Error (P.code_cancelled, ""))
        | Forward _ ->
            lost
              "worker died mid-resubmit; its warm context is gone (submit \
               cold to recompute)"
        | Run _ when job.payload.requeued || t.stopping ->
            lost
              (if t.stopping then
                 "worker died while draining; job not requeued"
               else "worker died twice while running this job")
        | Run _ -> (
            job.payload.requeued <- true;
            Obs.incr t.obs "service.requeues";
            match
              Fq.push t.queue ~tenant:job.envelope.P.tenant
                ~priority:job.envelope.P.priority job
            with
            | Ok () ->
                job.state <- F.Queued;
                job.enqueued_at <- Obs.Clock.wall ();
                Log.warn t.log "job.requeue" (F.job_fields job);
                Condition.broadcast t.cond
            | Error (`Tenant_full _) ->
                lost "worker died and the tenant queue is full"))
  end

(* ------------------------------------------------------------------ *)
(* Worker lifecycle                                                   *)
(* ------------------------------------------------------------------ *)

let devnull =
  lazy (Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0)

let spawn_args p w =
  [ p.cfg.worker_exe; "serve"; "--socket"; w.w_socket; "--queue-cap"; "8" ]
  @ [ "--cache-cap"; string_of_int (max 8 p.cfg.service.cache_cap) ]
  @ [ "--jobs"; string_of_int p.cfg.service.jobs ]
  @ [ "--log-level"; "error" ]
  @ (match p.cfg.service.timeout with
    | None -> []
    | Some s -> [ "--timeout"; string_of_float s ])

(* Mark [w] dead and hold its respawn back by its backoff, which doubles
   up to 8 s. *)
let mark_dead (w : worker) =
  w.w_state <- Dead;
  w.w_not_before <- Obs.Clock.wall () +. w.w_backoff;
  w.w_backoff <- Float.min 8.0 (w.w_backoff *. 2.0)

(* The one worker-death path. A worker stopped answering: SIGKILL it
   (idempotent; [kill = false] when [waitpid] already reaped it), mark it
   dead, mark its job's leg lost and settle the job. Caller holds the
   lock. *)
let worker_down_locked p (w : worker) ~kill =
  if w.w_state <> Dead then begin
    if kill && w.w_pid > 0 then
      (try Unix.kill w.w_pid Sys.sigkill with Unix.Unix_error _ -> ());
    mark_dead w;
    Log.warn p.t.log "worker.down" [ ("worker", J.Int w.w_id) ];
    Option.iter
      (fun (job : job) ->
        List.iter
          (fun l ->
            if l.worker = w.w_id && l.outcome = `Pending then
              l.outcome <- `Lost)
          job.payload.legs;
        settle_locked p job)
      (Option.bind w.w_job (Hashtbl.find_opt p.t.jobs_tbl));
    w.w_job <- None;
    Condition.broadcast p.t.cond
  end

let spawn_worker_locked p w =
  let args = Array.of_list (spawn_args p w) in
  match
    Unix.create_process p.cfg.worker_exe args Unix.stdin
      (Lazy.force devnull) Unix.stderr
  with
  | pid ->
      w.w_pid <- pid;
      w.w_state <- Starting;
      w.w_job <- None;
      Log.info p.t.log "worker.spawn"
        [ ("worker", J.Int w.w_id); ("pid", J.Int pid) ];
      true
  | exception Unix.Unix_error (e, _, _) ->
      w.w_pid <- -1;
      mark_dead w;
      Log.error p.t.log "worker.spawn_failed"
        [
          ("worker", J.Int w.w_id);
          ("error", J.String (Unix.error_message e));
        ];
      false

(* The health check both the start-up probe and the supervisor's idle
   probe run. *)
let healthy (w : worker) =
  match C.rpc ~socket:w.w_socket P.Health with
  | Ok reply -> Result.is_ok (C.ok_or_error reply)
  | Error _ -> false

(* Probe a freshly spawned worker until its health verb answers, then
   mark it idle. Runs in its own thread; [pid] guards against the
   worker having been restarted again underneath us. *)
let probe_ready p (w : worker) ~pid =
  let deadline = Obs.Clock.wall () +. 15.0 in
  let rec loop () =
    if Obs.Clock.wall () > deadline then false
    else if healthy w then true
    else begin
      Thread.delay 0.05;
      loop ()
    end
  in
  let up = loop () in
  F.with_lock p.t (fun () ->
      if w.w_pid = pid && w.w_state = Starting then
        if up then begin
          w.w_state <- Idle;
          w.w_backoff <- 0.5;
          Log.info p.t.log "worker.up" [ ("worker", J.Int w.w_id) ];
          Condition.broadcast p.t.cond
        end
        else worker_down_locked p w ~kill:true)

let start_worker_locked p w ~restart =
  if spawn_worker_locked p w then begin
    if restart then begin
      w.w_restarts <- w.w_restarts + 1;
      Obs.incr p.t.obs "service.worker_restarts"
    end;
    let pid = w.w_pid in
    ignore (Thread.create (fun () -> probe_ready p w ~pid) ())
  end

(* Supervisor: reap exited workers, respawn dead ones after their
   backoff, and health-probe idle ones so a wedged (but not exited)
   worker is detected and recycled. *)
let supervisor p =
  let tick = ref 0 in
  let reaped w =
    worker_down_locked p w ~kill:false;
    w.w_pid <- -1
  in
  let rec loop () =
    let continue =
      F.with_lock p.t (fun () ->
          if not p.supervising then false
          else begin
            Array.iter
              (fun w ->
                if w.w_pid > 0 then
                  match Unix.waitpid [ Unix.WNOHANG ] w.w_pid with
                  | 0, _ -> ()
                  | _, _ -> reaped w
                  | exception Unix.Unix_error _ -> reaped w)
              p.workers;
            if not p.t.stopping then
              Array.iter
                (fun w ->
                  if
                    w.w_state = Dead && w.w_pid = -1
                    && Obs.Clock.wall () >= w.w_not_before
                  then start_worker_locked p w ~restart:true)
                p.workers;
            true
          end)
    in
    if continue then begin
      (* Probe idle workers outside the lock, every ~2s. *)
      incr tick;
      if !tick mod 8 = 0 then begin
        let idle =
          F.with_lock p.t (fun () ->
              Array.to_list p.workers
              |> List.filter_map (fun w ->
                     if w.w_state = Idle then Some (w, w.w_pid) else None))
        in
        List.iter
          (fun ((w : worker), pid) ->
            if not (healthy w) then
              F.with_lock p.t (fun () ->
                  if w.w_pid = pid && w.w_state = Idle then
                    worker_down_locked p w ~kill:true))
          idle
      end;
      Thread.delay 0.25;
      loop ()
    end
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Relay: one thread per leg                                          *)
(* ------------------------------------------------------------------ *)

let free_worker_locked p (w : worker) =
  if w.w_state = Busy then begin
    w.w_state <- Idle;
    w.w_job <- None;
    Condition.broadcast p.t.cond
  end

(* Run one request on one worker and block on its result. Returns the
   result document with the worker's first reply (a cache hit or a
   forward of a cached base carries the document directly), the
   worker's typed refusal, or `Lost when the transport failed. *)
let run_on_worker (w : worker) req ~(on_worker_job : int -> unit) =
  match C.connect w.w_socket with
  | Error _ -> `Lost
  | Ok conn ->
      Fun.protect
        ~finally:(fun () -> C.close conn)
        (fun () ->
          let ask req k =
            match C.request conn req with
            | Error _ -> `Lost
            | Ok reply -> (
                match C.ok_or_error reply with
                | Error e -> `Err e
                | Ok reply -> k reply)
          in
          ask req (fun first ->
              let doc reply =
                match J.member "result" reply with
                | Some doc -> `Doc (doc, first)
                | None ->
                    `Err (P.code_bad_request, "worker reply lacks a result")
              in
              match
                ( J.member "result" first,
                  Option.bind (J.member "job" first) J.to_int )
              with
              | Some _, _ -> doc first
              | None, None ->
                  `Err (P.code_bad_request, "malformed worker reply")
              | None, Some wj ->
                  on_worker_job wj;
                  ask (P.Result { job = wj; wait = true }) doc))

(* Forward a cancel to the worker-side job, best effort. *)
let forward_cancel (socket, wj) =
  match C.rpc ~socket (P.Cancel wj) with Ok _ | Error _ -> ()

(* The worker-side jobs of [job]'s pending legs, as cancel targets.
   Caller holds the lock. *)
let pending_targets p (job : job) =
  List.filter_map
    (fun l ->
      match (l.outcome, l.wjob) with
      | `Pending, Some wj -> Some (p.workers.(l.worker).w_socket, wj)
      | _ -> None)
    job.payload.legs

let request_of (job : job) ~options =
  match job.payload.work with
  | Run { format; netlist } ->
      P.Submit
        {
          name = job.name;
          format;
          netlist;
          options;
          envelope = P.default_envelope;
        }
  | Forward { base; delta; options } ->
      P.Resubmit { name = job.name; base = `Digest base; delta; options }

(* Run leg [idx] of [job] on its worker with seed [seed + idx * 65537]
   (leg 0 sends the job's own options), record its outcome, free the
   worker and settle the job. A race's legs all run to the end, so its
   result depends only on the seeds it dispatched. A leg whose worker was
   declared dead meanwhile has already been settled as lost. *)
let relay p (job : job) ~idx (leg : leg) =
  let w = p.workers.(leg.worker) in
  let options =
    Core.Kway.Options.make ~base:job.options
      ~seed:(job.options.Core.Kway.seed + (idx * 65537))
      ()
  in
  let outcome =
    run_on_worker w (request_of job ~options) ~on_worker_job:(fun wj ->
        let cancel_now =
          F.with_lock p.t (fun () ->
              leg.wjob <- Some wj;
              Atomic.get job.cancel)
        in
        if cancel_now then forward_cancel (w.w_socket, wj))
  in
  F.with_lock p.t (fun () ->
      match (leg.outcome, outcome) with
      | `Pending, `Lost ->
          (* The slot stays dead until the supervisor respawns it. *)
          worker_down_locked p w ~kill:true
      | `Pending, ((`Doc _ | `Err _) as o) ->
          leg.outcome <- o;
          free_worker_locked p w;
          settle_locked p job
      | _ -> ());
  (* The disk write happens outside the front-end lock; Disk_cache has
     its own. *)
  match (leg.outcome, p.disk) with
  | `Doc (doc, _), Some d when cacheable job -> Disk_cache.add d job.key doc
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Dispatcher                                                         *)
(* ------------------------------------------------------------------ *)

let idle_workers p =
  Array.to_list p.workers |> List.filter (fun w -> w.w_state = Idle)

(* Claim [w] for a leg of [job]. Caller holds the lock. *)
let claim (w : worker) (job : job) =
  w.w_state <- Busy;
  w.w_job <- Some job.id;
  { worker = w.w_id; wjob = None; outcome = `Pending }

(* Hand a dequeued job to the idle workers: one leg on each for a
   portfolio race, one on the first otherwise. Caller holds the lock and
   has seen an idle worker; the returned relays run on threads of their
   own. *)
let assign p (job : job) =
  let t = p.t and race = job.envelope.P.portfolio in
  let idle = idle_workers p in
  let workers = if race then idle else [ List.hd idle ] in
  let legs = List.map (fun w -> claim w job) workers in
  job.payload.legs <- legs;
  let fields =
    if race then begin
      Obs.incr t.obs "fleet.portfolio_races";
      Obs.observe t.obs "fleet.portfolio_width" (List.length legs);
      [ ("portfolio", J.Bool true); ("racers", J.Int (List.length legs)) ]
    end
    else begin
      Obs.incr t.obs "fleet.dispatched";
      List.map (fun l -> ("worker", J.Int l.worker)) legs
    end
  in
  Log.info t.log "job.dispatch" (F.job_fields job @ fields);
  List.mapi (fun idx leg () -> relay p job ~idx leg) legs

let rec dispatcher p =
  let relays =
    F.with_lock p.t (fun () ->
        F.next_job p.t ~ready:(fun () -> idle_workers p <> [])
        |> Option.map (assign p))
  in
  match relays with
  | None -> ()
  | Some relays ->
      List.iter (fun f -> ignore (Thread.create f ())) relays;
      dispatcher p

(* ------------------------------------------------------------------ *)
(* Resubmit: digest-affinity forwarding                               *)
(* ------------------------------------------------------------------ *)

(* The warm context of a base partition lives in the memory of the
   worker that computed it, so a resubmit is forwarded there (falling
   back to any idle worker — the target then cold-falls-back or answers
   not_found if it never saw the base) through the same relay as a
   dispatched job. The forward is synchronous: the client's reply is the
   terminal one, under the front end's job id. A worker lost
   mid-resubmit fails it with [worker_lost]. *)
let handle_resubmit p ~name ~base ~delta ~options =
  let t = p.t in
  let received = Obs.Clock.wall () in
  let rec acquire base_key =
    let preferred =
      Option.bind (Hashtbl.find_opt p.affinity base_key) (fun id ->
          if p.workers.(id).w_state = Idle then Some p.workers.(id)
          else None)
    in
    match (preferred, idle_workers p) with
    | _ when t.stopping -> Error (F.draining_reply ())
    | Some w, _ | None, w :: _ ->
        Obs.incr t.obs "fleet.resubmit_forwarded";
        let job =
          F.register_job t ~name ~key:base_key
            ~options:(Option.value options ~default:Core.Kway.Options.default)
            ~envelope:P.default_envelope ~stamps:(F.stamps_at received)
            ~payload:(payload (Forward { base = base_key; delta; options }))
            F.Running
        in
        let leg = claim w job in
        job.payload.legs <- [ leg ];
        Ok (job, leg)
    | None, [] ->
        Condition.wait t.cond t.mutex;
        acquire base_key
  in
  let claimed =
    F.with_lock t (fun () ->
        Obs.incr t.obs "service.resubmit_requests";
        match base with
        | `Digest key -> acquire key
        | `Job id -> (
            match Hashtbl.find_opt t.jobs_tbl id with
            | Some j -> acquire j.key
            | None -> Error (F.job_not_found id)))
  in
  match claimed with
  | Error reply -> reply
  | Ok (job, leg) ->
      relay p job ~idx:0 leg;
      F.with_lock t (fun () ->
          F.result_reply ~extra:job.payload.forwarded job)

(* ------------------------------------------------------------------ *)
(* Pool state                                                         *)
(* ------------------------------------------------------------------ *)

(* The pool as data, for the front end to render. Caller holds the
   lock. *)
let pool_state p () =
  {
    F.Pool.workers =
      Array.to_list p.workers
      |> List.map (fun w ->
             {
               F.Pool.id = w.w_id;
               state = w.w_state;
               pid = w.w_pid;
               restarts = w.w_restarts;
               socket = w.w_socket;
             });
    disk =
      Option.map
        (fun d ->
          {
            F.Pool.entries = Disk_cache.length d;
            corrupt = Disk_cache.corrupt_skipped d;
          })
        p.disk;
  }

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                          *)
(* ------------------------------------------------------------------ *)

let shutdown_workers p =
  (* Graceful first: the shutdown verb drains each worker. Stragglers
     get SIGKILL after a grace period — their jobs are already terminal
     (the drain waited for every relay). *)
  Array.iter
    (fun (w : worker) ->
      if w.w_pid > 0 then
        match C.rpc ~socket:w.w_socket P.Shutdown with Ok _ | Error _ -> ())
    p.workers;
  let deadline = Obs.Clock.wall () +. 5.0 in
  Array.iter
    (fun (w : worker) ->
      if w.w_pid > 0 then begin
        let rec reap () =
          match Unix.waitpid [ Unix.WNOHANG ] w.w_pid with
          | 0, _ ->
              if Obs.Clock.wall () > deadline then begin
                (try Unix.kill w.w_pid Sys.sigkill
                 with Unix.Unix_error _ -> ());
                ignore (Unix.waitpid [] w.w_pid)
              end
              else begin
                Thread.delay 0.05;
                reap ()
              end
          | _ -> ()
          | exception Unix.Unix_error _ -> ()
        in
        reap ();
        w.w_pid <- -1
      end;
      (* A SIGKILLed worker leaves its socket file; clean it up so the
         next fleet start has nothing stale to probe. *)
      try Unix.unlink w.w_socket with Unix.Unix_error _ -> ())
    p.workers

let backend p =
  let t = p.t in
  let threads = ref None in
  {
    F.payload =
      (fun ~format ~netlist ~circuit:_ ~hypergraph:_ ->
        payload (Run { format; netlist }));
    spill =
      Option.map
        (fun d key ->
          (* Disk lookups do their own locking; this probe runs outside
             the front-end lock, ahead of the LRU lookup. *)
          Option.map (fun doc -> { F.doc; basis = () }) (Disk_cache.find d key))
        p.disk;
    resubmit = handle_resubmit p;
    on_cancel =
      (fun job ->
        let targets = pending_targets p job in
        fun () -> List.iter forward_cancel targets);
    pool = Some (pool_state p);
    start =
      (fun () ->
        F.with_lock t (fun () ->
            Array.iter
              (fun w -> start_worker_locked p w ~restart:false)
              p.workers);
        threads :=
          Some (Thread.create dispatcher p, Thread.create supervisor p));
    drain =
      (fun () ->
        (* The dispatcher exits once the queue is empty; then wait for
           every in-flight relay to reach a terminal state (a worker
           death during drain fails its job typed, so this terminates). *)
        let dispatcher_thread, supervisor_thread = Option.get !threads in
        Thread.join dispatcher_thread;
        F.with_lock t (fun () ->
            while F.inflight t > 0 do
              Condition.wait t.cond t.mutex
            done;
            p.supervising <- false);
        Thread.join supervisor_thread;
        shutdown_workers p);
  }

let run ?on_ready ?external_stop (cfg : config) =
  if cfg.workers < 1 then Error "fleet: --workers must be >= 1"
  else
    match
      Option.fold ~none:(Ok None)
        ~some:(fun dir ->
          Result.map Option.some
            (Disk_cache.open_dir ~log:cfg.service.log dir))
        cfg.cache_dir
    with
    | Error e -> Error e
    | Ok disk ->
      let t = F.create cfg.service in
      let p =
        {
          cfg;
          t;
          disk;
          affinity = Hashtbl.create 64;
          workers =
            Array.init cfg.workers (fun i ->
                {
                  w_id = i;
                  w_socket =
                    Printf.sprintf "%s.worker%d" cfg.service.socket_path i;
                  w_pid = -1;
                  w_state = Dead;
                  w_job = None;
                  w_restarts = 0;
                  w_backoff = 0.5;
                  w_not_before = 0.0;
                });
          supervising = true;
        }
      in
      let outcome = F.serve ?on_ready ?external_stop t (backend p) in
      Option.iter Disk_cache.close disk;
      outcome
