module J = Obs.Json
module P = Protocol
module Log = Obs.Log
module F = Front

type config = F.config = {
  socket_path : string;
  queue_cap : int;
  cache_cap : int;
  tenant_weights : (string * int) list;
  timeout : float option;
  jobs : int;
  log : Log.t;
  trace_path : string option;
}

let default_config = F.default_config

(* How the executor computes a job: from scratch, or warm-started from a
   projected base partition (a resubmit whose base basis was still
   cached). A warm job that fails for any reason other than cancellation
   falls back to a cold run — the seed is an accelerator, never a
   correctness dependency. *)
type mode = Cold | Warm of Core.Kway.warm

type payload = {
  circuit : Netlist.Circuit.t;  (* canonical; resubmit bases read it *)
  hypergraph : Hypergraph.t;
  mode : mode;
}

(* What a resubmit needs from its base beyond the cached document: the
   canonical circuit (to apply the delta to), the mapped hypergraph and
   the partition (to project), and the options (the resubmit default). *)
type basis = {
  b_circuit : Netlist.Circuit.t;
  b_hypergraph : Hypergraph.t;
  b_result : Core.Kway.result;
  b_options : Core.Kway.options;
}

type job = payload F.job
type t = (payload, basis) F.t

(* The document a [result] request returns and the cache stores. Scrubbed
   ([_secs] fields nulled) so the bytes are a pure function of the job
   key: the hit replies exactly what the miss computed. The wall-clock
   [timings] object lives in the reply envelope, never in this document —
   that is what keeps cache-hit replies byte-identical. *)
let result_doc (job : job) result =
  Obs.Snapshot.scrub_elapsed
    (J.Obj
       [
         ("schema_version", J.Int Experiments.Obs_report.schema_version);
         ("artifact", J.String "service.result");
         ("circuit", J.String job.name);
         ("digest", J.String job.key);
         ("options", Experiments.Obs_report.options_to_json job.options);
         ("result", Experiments.Obs_report.result_to_json result);
       ])

(* ------------------------------------------------------------------ *)
(* Executor: one thread over the front end's queue                    *)
(* ------------------------------------------------------------------ *)

let run_job (t : t) cfg (job : job) =
  let deadline = Option.map (fun s -> job.started_at +. s) cfg.timeout in
  let should_stop () =
    Atomic.get job.cancel
    || match deadline with
       | Some d -> Obs.Clock.wall () > d
       | None -> false
  in
  let options =
    Core.Kway.Options.make ~base:job.options ~jobs:cfg.jobs ~should_stop ()
  in
  let objective = options.Core.Kway.objective in
  (* Per-job collecting sink: the engine's F-M telemetry rolls up into the
     service-wide throughput metrics below (the sink itself is discarded —
     svc-stats stays O(jobs), not O(moves)). *)
  let job_obs = Obs.create () in
  let library = Fpga.Library.xc3000 in
  let h = job.payload.hypergraph in
  let cold () = Core.Kway.partition ~obs:job_obs ~options ~library h in
  let warm_fell_back = ref false in
  let result =
    match job.payload.mode with
    | Cold -> cold ()
    | Warm warm -> (
        match Core.Kway.warm_start ~obs:job_obs ~options ~library ~warm h with
        | Error msg when String.equal msg Core.Kway.cancelled ->
            Error Core.Kway.cancelled
        | Ok r when Result.is_ok (Core.Kway.check ~objective h r) -> Ok r
        | Ok _ | Error _ ->
            (* Malformed seed, a part outgrowing every device, or an
               unsound warm result: recompute from scratch. *)
            warm_fell_back := true;
            cold ())
  in
  let wall = Obs.Clock.wall () -. job.started_at in
  F.with_lock t (fun () ->
      F.record_run t job;
      (match job.payload.mode with
      | Cold -> ()
      | Warm _ ->
          Obs.observe t.obs "service.resubmit_run_ms" job.run_ms;
          if !warm_fell_back then begin
            Obs.incr t.obs "service.resubmit_warm_failed";
            Log.warn t.log "job.warm_fallback" (F.job_fields job)
          end);
      (let snap = Obs.snapshot job_obs in
       let counter k =
         try List.assoc k snap.Obs.Snapshot.counters with Not_found -> 0
       in
       let applied = counter "fm.applied_ops" in
       if applied > 0 then begin
         (* One observation per job: applied F-M ops over the job's wall
            time. The _per_sec suffix marks it wall-derived, so the
            determinism scrub masks it like the _secs timers. *)
         Obs.observe t.obs "service.fm_moves_per_sec"
           (int_of_float (float_of_int applied /. Float.max wall 1e-9));
         Obs.incr t.obs ~by:(counter "fm.rescored_cells")
           "service.fm_rescored_cells";
         Obs.incr t.obs ~by:applied "service.fm_applied_ops"
       end);
      match result with
      | Ok r ->
          let encode_start = Obs.Clock.wall () in
          let doc = result_doc job r in
          let encode_end = Obs.Clock.wall () in
          job.encode_ms <- F.ms_since encode_start;
          Obs.add_span ~pid:job.id t.trace "encode_reply"
            ~begin_wall:encode_start ~end_wall:encode_end;
          let basis =
            {
              b_circuit = job.payload.circuit;
              b_hypergraph = h;
              b_result = r;
              b_options = job.options;
            }
          in
          F.finish_job ~basis t job (Ok doc)
      | Error msg when String.equal msg Core.Kway.cancelled ->
          F.finish_job t job
            (if Atomic.get job.cancel then Error (P.code_cancelled, msg)
             else Error (P.code_timeout, "job exceeded the per-job timeout"))
      | Error msg -> F.finish_job t job (Error (P.code_infeasible, msg)))

(* [None] from the queue means draining is done. *)
let rec executor t cfg =
  match F.with_lock t (fun () -> F.next_job t ~ready:(fun () -> true)) with
  | None -> ()
  | Some job ->
      run_job t cfg job;
      executor t cfg

(* ------------------------------------------------------------------ *)
(* Resubmit: incremental repartitioning                               *)
(* ------------------------------------------------------------------ *)

(* Resolve a resubmit's base to (key, canonical circuit, options, cached
   entry). The cached entry carries the warm context; it is [None] when
   the LRU evicted it (or the base job has not finished) — the resubmit
   then falls back to a cold run, because lineage eviction must never
   strand a chain, only slow it down. The canonical circuit itself is
   always recoverable: by-id from the job table (which never evicts),
   by-digest from the table scan. Caller holds the lock. *)
let resolve_base (t : t) base =
  let of_job (j : job) =
    Ok (j.key, j.payload.circuit, j.options, Lru.find t.cache j.key)
  in
  match base with
  | `Job id -> (
      match Hashtbl.find_opt t.jobs_tbl id with
      | None -> Error (F.job_not_found id)
      | Some job -> of_job job)
  | `Digest key -> (
      match Lru.find t.cache key with
      | Some e -> Ok (key, e.basis.b_circuit, e.basis.b_options, Some e)
      | None -> (
          let recovered =
            Hashtbl.fold
              (fun _ (j : job) acc ->
                if acc = None && String.equal j.key key then Some j else acc)
              t.jobs_tbl None
          in
          match recovered with
          | Some j -> of_job j
          | None ->
              Error
                (P.error ~code:P.code_not_found
                   ("no job or cached result with digest " ^ key))))

let objective_name (o : Core.Kway.options) =
  o.Core.Kway.objective.Fpga.Objective.name

let handle_resubmit (t : t) b ~name ~base ~delta ~options =
  let t_received = Obs.Clock.wall () in
  let resolved =
    F.with_lock t (fun () ->
        Obs.incr t.obs "service.resubmit_requests";
        resolve_base t base)
  in
  let bad_request msg =
    F.with_lock t (fun () -> Obs.incr t.obs "service.bad_requests");
    P.error ~code:P.code_bad_request msg
  in
  match resolved with
  | Error reply -> reply
  | Ok (_, _, base_options, _)
    when Option.fold ~none:false
           ~some:(fun o ->
             not (String.equal (objective_name o) (objective_name base_options)))
           options ->
      (* A warm chain cannot switch cost objectives mid-lineage: the base
         partition was shaped (device choices, split decisions) by its
         objective, so projecting it under another would launder a
         foreign seed into the new objective's cache lineage. Reject
         loudly; the client submits cold instead. *)
      bad_request
        (Printf.sprintf
           "resubmit: objective %S differs from the base's %S; a warm \
            lineage keeps one objective (submit cold to switch)"
           (objective_name (Option.get options))
           (objective_name base_options))
  | Ok (base_key, base_circuit, base_options, base_entry) -> (
      let options = Option.value options ~default:base_options in
      let admit =
        F.admit t b ~name ~options ~envelope:P.default_envelope
      in
      match base_entry with
      | Some entry
        when Netlist.Delta.is_empty delta
             && String.equal
                  (Digest.options_fingerprint options)
                  (Digest.options_fingerprint base_options) ->
          (* Delta of nothing: the request asks for the base partition
             itself, which the cache answers verbatim — byte-identical to
             the submit reply that populated it — without mapping or
             running anything (service.fm_applied_ops is untouched). *)
          F.with_lock t (fun () -> Obs.incr t.obs "service.resubmit_noop");
          admit ~key:base_key ~stamps:(F.stamps_at t_received)
            {
              circuit = base_circuit;
              hypergraph = entry.basis.b_hypergraph;
              mode = Cold;
            }
      | _ -> (
          match Netlist.Delta.apply base_circuit delta with
          | Error e ->
              F.with_lock t (fun () ->
                  Log.warn t.log "job.decode_failed"
                    [ ("name", J.String name); ("delta", J.Bool true) ]);
              bad_request ("delta: " ^ Netlist.Delta.error_to_string e)
          | Ok edited ->
              let t_decoded = Obs.Clock.wall () in
              (* Delta.apply ends with Elaborate.canonical, so the edited
                 circuit is already in digest node order, exactly like a
                 submit's canonicalised circuit (test_service pins it). *)
              let h =
                Techmap.Mapper.to_hypergraph (Techmap.Mapper.map edited)
              in
              let key_e =
                Digest.job_key ~library:Fpga.Library.xc3000 ~options h
              in
              let seed =
                Option.map
                  (fun (e : basis F.entry) ->
                    Core.Kway.project_warm ~base:e.basis.b_hypergraph
                      ~base_parts:e.basis.b_result.Core.Kway.parts h)
                  base_entry
              in
              (* A warm result depends on which partition seeded it, so it
                 caches under the lineage key; a cold fallback is a plain
                 run of the edited circuit and shares the cold key (and
                 its byte-determinism contract). *)
              let key, mode =
                match seed with
                | None -> (key_e, Cold)
                | Some (warm, _) ->
                    (Digest.lineage_key ~base:base_key ~edited:key_e, Warm warm)
              in
              let cold_fallback = ("cold_fallback", J.Bool (seed = None)) in
              let on_admit () =
                match seed with
                | None -> Obs.incr t.obs "service.resubmit_cold_fallback"
                | Some (_, proj) ->
                    let dirty =
                      Array.fold_left
                        (fun a d -> if d then a + 1 else a)
                        0 proj.Projection.dirty
                    in
                    Obs.incr t.obs "service.resubmit_warm";
                    Obs.observe t.obs "service.resubmit_dirty_cells" dirty;
                    Obs.observe t.obs "service.resubmit_seeded_cells"
                      proj.Projection.added
              in
              let stamps =
                { F.t_received; t_decoded; t_keyed = Obs.Clock.wall () }
              in
              admit ~key ~stamps ~extra:[ cold_fallback ]
                ~log_extra:[ ("base", J.String base_key); cold_fallback ]
                ~on_admit
                { circuit = edited; hypergraph = h; mode }))

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                          *)
(* ------------------------------------------------------------------ *)

let run ?on_ready ?external_stop cfg =
  let t = F.create cfg in
  let exec = ref None in
  let rec b =
    {
      F.payload =
        (fun ~format:_ ~netlist:_ ~circuit ~hypergraph ->
          { circuit; hypergraph; mode = Cold });
      spill = None;
      resubmit = (fun ~name ~base ~delta ~options ->
        handle_resubmit t b ~name ~base ~delta ~options);
      on_cancel = (fun _ -> ignore);
      pool = None;
      start = (fun () -> exec := Some (Thread.create (executor t) cfg));
      drain = (fun () -> Option.iter Thread.join !exec);
    }
  in
  F.serve ?on_ready ?external_stop t b
