(* The per-layer ledger of a traced run. Each public call on a job's path
   runs as a named stage: a span on one tracing sink (the Perfetto
   artifact) plus wall seconds and allocated words summed per stage. The
   same sink is handed to Kway, so the engine's own spans nest under the
   bench's ["core.partition"] span and its counters and events land next
   to them. Every figure is reported as a mean per job. *)

type t = {
  obs : Obs.t;
  sums : (string, float) Hashtbl.t;
  mutable jobs : int;
}

let create () =
  { obs = Obs.create ~trace:true (); sums = Hashtbl.create 64; jobs = 0 }

let get t k = Option.value ~default:0.0 (Hashtbl.find_opt t.sums k)
let add t k v = Hashtbl.replace t.sums k (get t k +. v)
let count t k v = add t k (float_of_int v)
let job_done t = t.jobs <- t.jobs + 1

(* Words allocated so far by this domain, promoted words counted once. *)
let allocated_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* CPU seconds (user and system) used so far by this process, all its
   threads together. *)
let cpu_seconds () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let stage ledger name f =
  match ledger with
  | None -> f ()
  | Some t ->
      let a0 = allocated_words () in
      let t0 = Obs.Clock.wall () in
      let r = Obs.span t.obs name f in
      add t (name ^ "_s") (Obs.Clock.wall () -. t0);
      add t (name ^ "_alloc_mw") ((allocated_words () -. a0) /. 1e6);
      r

let sink = function Some t -> t.obs | None -> Obs.noop

(* ------------------------------------------------------------------ *)
(* Reading the engine's telemetry back                                *)
(* ------------------------------------------------------------------ *)

let has_prefix p s =
  String.length s >= String.length p && String.sub s 0 (String.length p) = p

let is_indexed prefix s =
  let lp = String.length prefix and ls = String.length s in
  ls > lp && has_prefix prefix s
  && String.for_all (fun ch -> ch >= '0' && ch <= '9') (String.sub s lp (ls - lp))

(* Split each ["core.partition"] span of the trace into the V-cycle's
   phases. Its direct children are ["coarsen<d>"] (one per level),
   ["run<r>"] (the flat multi-start on the coarsest graph) and
   ["refine<n>"]: a level of the uncoarsening walk when it wraps a nested
   pairwise ["refine"] or ["greedy"] sweep, otherwise the flat solve's
   winner refinement. Flat jobs have no coarsen spans and count zero.
   Returns totals over all jobs: coarsen, coarse-solve and level-refine
   seconds, and the number of levels. *)
let vcycle_split recorded =
  let open Obs.Trace in
  let parent = "core.partition" in
  let dur s = s.end_secs -. s.begin_secs in
  let inside p s = s.begin_secs >= p.begin_secs && s.end_secs <= p.end_secs in
  let child_name s =
    let pre = parent ^ "/" in
    if not (has_prefix pre s.span_name) then None
    else
      let rest =
        String.sub s.span_name (String.length pre)
          (String.length s.span_name - String.length pre)
      in
      if String.contains rest '/' then None else Some rest
  in
  let wraps_sweep s =
    List.exists
      (fun g ->
        inside s g
        && (has_prefix (s.span_name ^ "/refine") g.span_name
           || has_prefix (s.span_name ^ "/greedy") g.span_name))
      recorded
  in
  let sum l = List.fold_left (fun a (_, s) -> a +. dur s) 0.0 l in
  List.fold_left
    (fun ((coarsen, solve, refine, levels) as acc) job ->
      let children =
        List.filter_map
          (fun s ->
            match child_name s with
            | Some n when inside job s -> Some (n, s)
            | _ -> None)
          recorded
      in
      let co = List.filter (fun (n, _) -> is_indexed "coarsen" n) children in
      if co = [] then acc
      else
        let refines = List.filter (fun (n, _) -> is_indexed "refine" n) children in
        let level, winner = List.partition (fun (_, s) -> wraps_sweep s) refines in
        let runs = List.filter (fun (n, _) -> is_indexed "run" n) children in
        ( coarsen +. sum co,
          solve +. sum runs +. sum winner,
          refine +. sum level,
          levels + List.length level ))
    (0.0, 0.0, 0.0, 0)
    (List.filter (fun s -> String.equal s.span_name parent) recorded)

(* Coarsest-graph size of each multilevel job: the [coarse_cells] of the
   deepest ["ml.coarsen"] event before the level counter restarts. *)
let coarsest_total events =
  let field k (e : Obs.Snapshot.event) =
    Option.value ~default:0
      (Option.bind (List.assoc_opt k e.Obs.Snapshot.fields) Obs.Json.to_int)
  in
  let last = Option.value ~default:0 in
  let total, deepest =
    List.fold_left
      (fun (total, deepest) (e : Obs.Snapshot.event) ->
        if not (String.equal e.Obs.Snapshot.name "ml.coarsen") then
          (total, deepest)
        else if field "level" e = 0 then
          (total + last deepest, Some (field "coarse_cells" e))
        else (total, Some (field "coarse_cells" e)))
      (0, None) events
  in
  total + last deepest

let metrics t =
  let jobs = float_of_int (max 1 t.jobs) in
  let snap = Obs.snapshot t.obs in
  let counter k =
    float_of_int
      (Option.value ~default:0 (List.assoc_opt k snap.Obs.Snapshot.counters))
  in
  let attempts, feasible =
    List.fold_left
      (fun (a, f) (e : Obs.Snapshot.event) ->
        if String.equal e.Obs.Snapshot.name "kway.device_attempt" then
          let ok =
            List.assoc_opt "feasible" e.Obs.Snapshot.fields
            = Some (Obs.Json.Bool true)
          in
          (a + 1, if ok then f + 1 else f)
        else (a, f))
      (0, 0) snap.Obs.Snapshot.events
  in
  let coarsen, solve, refine, levels = vcycle_split (Obs.Trace.spans t.obs) in
  let applied = counter "fm.applied_ops" in
  let engine_s = get t "core.partition_s" +. get t "core.warm_start_s" in
  let ratio a b = if b > 0.0 then a /. b else 0.0 in
  let derived =
    [
      ("core.coarsen_s", coarsen /. jobs);
      ("core.coarse_solve_s", solve /. jobs);
      ("core.refine_s", refine /. jobs);
      ("core.ml_levels", float_of_int levels /. jobs);
      ( "core.coarsest_cells",
        float_of_int (coarsest_total snap.Obs.Snapshot.events) /. jobs );
      ("core.greedy_moves", counter "kway.greedy_moves" /. jobs);
      ("core.fm_passes", counter "fm.passes" /. jobs);
      ("core.fm_applied_ops", applied /. jobs);
      ("core.fm_rollback_ratio", ratio (counter "fm.rolled_back_ops") applied);
      ("core.fm_rescored_per_move", ratio (counter "fm.rescored_cells") applied);
      ("core.fm_moves_per_s", ratio applied engine_s);
      ("core.device_attempts", counter "kway.device_attempts" /. jobs);
      ( "core.feasible_attempt_ratio",
        ratio (float_of_int feasible) (float_of_int attempts) );
      ("core.splits", counter "kway.splits" /. jobs);
    ]
  in
  (* Stage sums ([<stage>_s], [<stage>_alloc_mw]) and per-job counts are
     stored under their metric names; everything else is derived above. *)
  List.filter_map
    (fun (name, unit) ->
      let v =
        match List.assoc_opt name derived with
        | Some v -> Some v
        | None when Hashtbl.mem t.sums name -> Some (get t name /. jobs)
        | None -> None
      in
      Option.map (Metrics.metric name unit ~n:t.jobs) v)
    Metrics.per_layer

(* Human-readable table, one "workload metric value unit n=…" row each. *)
let table ~workload ms =
  String.concat ""
    (List.map
       (fun (m : Metrics.metric) ->
         Printf.sprintf "%-14s %-30s %14.6g %s n=%d\n" workload m.Metrics.name
           m.Metrics.value m.Metrics.unit m.Metrics.n)
       ms)
