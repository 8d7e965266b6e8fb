(* Metric names, units and the statistics every report is built from. The
   names and units here are the ones BENCHMARK.json declares; the smoke
   run checks that the two agree. *)

module J = Obs.Json

type metric = { name : string; value : float; unit : string; n : int }
(** [n] is the number of samples behind [value]. *)

let metric name unit ?(n = 1) value = { name; value; unit; n }

(* End-to-end metrics, reported by every workload of an untraced run.
   Apart from the set-up time they are functions of the seed and the
   code, so a bound on them is a real gate on a shared, drifting host. *)
let end_to_end =
  [
    ("setup_s", "s");
    ("alloc_mw_per_job", "Mw");
    ("cost_per_cell", "usd/cell");
    ("iob_util", "ratio");
  ]

(* Reported next to them as context, without a bound: wall-clock latency
   and process CPU time drift with the host by more than any useful
   bound. CPU time is measured where the work runs in this process, so a
   fleet run, whose workers are other processes, reports none. *)
let context = [ ("latency_p50_ms", "ms"); ("cpu_s_per_job", "s") ]

(* Per-layer metrics of a traced run, in layer order. A layer a workload
   never enters reports 0. *)
let per_layer =
  [
    ("netlist.parse_s", "s");
    ("netlist.parse_alloc_mw", "Mw");
    ("netlist.input_mb", "MB");
    ("netlist.delta_apply_s", "s");
    ("techmap.map_s", "s");
    ("techmap.map_alloc_mw", "Mw");
    ("techmap.clbs", "count");
    ("techmap.decompose_s", "s");
    ("techmap.cover_s", "s");
    ("techmap.pack_s", "s");
    ("hypergraph.create_s", "s");
    ("hypergraph.create_alloc_mw", "Mw");
    ("hypergraph.cells", "count");
    ("hypergraph.nets", "count");
    ("hypergraph.pins", "count");
    ("hypergraph.project_s", "s");
    ("hypergraph.dirty_cells", "count");
    ("core.partition_s", "s");
    ("core.partition_alloc_mw", "Mw");
    ("core.coarsen_s", "s");
    ("core.coarse_solve_s", "s");
    ("core.refine_s", "s");
    ("core.ml_levels", "count");
    ("core.coarsest_cells", "count");
    ("core.greedy_moves", "count");
    ("core.fm_passes", "count");
    ("core.fm_applied_ops", "count");
    ("core.fm_rollback_ratio", "ratio");
    ("core.fm_rescored_per_move", "count");
    ("core.fm_moves_per_s", "1/s");
    ("core.device_attempts", "count");
    ("core.feasible_attempt_ratio", "ratio");
    ("core.splits", "count");
    ("core.replicated_cells", "count");
    ("core.warm_start_s", "s");
    ("core.check_s", "s");
    ("experiments.encode_s", "s");
    ("service.decode_ms_p50", "ms");
    ("service.run_ms_p50", "ms");
    ("service.encode_ms_p50", "ms");
    ("service.queue_wait_ms_p90", "ms");
    ("service.overhead_ms_p50", "ms");
    ("service.cache_hit_ratio", "ratio");
    ("service.hit_latency_ms_p50", "ms");
    ("service.warm_ratio", "ratio");
    ("service.latency_p90_ms", "ms");
    ("fleet.hop_ms_p50", "ms");
    ("fleet.worker_busy_frac", "ratio");
    ("fleet.requeues", "count");
    ("fleet.worker_restarts", "count");
    ("process.peak_heap_mb", "MiB");
    ("trace.overhead_frac", "ratio");
  ]

(* Complete a metric list against a declared set: declared names missing
   from [ms] read 0 (their layer was not on this workload's path);
   undeclared names are dropped. *)
let complete declared ms =
  List.map
    (fun (name, unit) ->
      match List.find_opt (fun m -> String.equal m.name name) ms with
      | Some m -> m
      | None -> metric name unit ~n:0 0.0)
    declared

(* ------------------------------------------------------------------ *)
(* Statistics                                                         *)
(* ------------------------------------------------------------------ *)

let sorted l = List.sort Float.compare l

(* Linear-interpolation percentile (p in [0, 1]) of a non-empty list. *)
let percentile p l =
  match sorted l with
  | [] -> nan
  | s ->
      let a = Array.of_list s in
      let pos = p *. float_of_int (Array.length a - 1) in
      let i = int_of_float (Float.floor pos) in
      let j = min (i + 1) (Array.length a - 1) in
      let frac = pos -. float_of_int i in
      if frac = 0.0 then a.(i) else a.(i) +. (frac *. (a.(j) -. a.(i)))

let median l = percentile 0.5 l

(* Quartiles exactly as Python's [statistics.quantiles(v, n=4)] (its
   default "exclusive" method) computes them, so the spreads this tool
   reports are the ones a reader recomputes from the raw values. *)
let quartiles l =
  let a = Array.of_list (sorted l) in
  let n = Array.length a in
  if n = 0 then (nan, nan, nan)
  else if n = 1 then (a.(0), a.(0), a.(0))
  else
    let m = n + 1 in
    let q i =
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = float_of_int ((i * m) - (j * 4)) in
      ((a.(j - 1) *. (4.0 -. delta)) +. (a.(j) *. delta)) /. 4.0
    in
    (q 1, q 2, q 3)

(* ------------------------------------------------------------------ *)
(* Run records                                                        *)
(* ------------------------------------------------------------------ *)

type record = {
  workload : string;
  seed : int;
  traced : bool;
  build : string;  (** digest of the benchmark executable: which code ran *)
  attempted : int;
  failed : int;
  failures : string list;
  digest : string;  (** of the quality-prefix results: devices, cost, IOBs *)
  metrics : metric list;
}

let correct r = r.failed = 0 && r.failures = []

(* Values a JSON reader can take: a failure-inflated latency is +inf in
   the computation and a large finite number on the wire. *)
let finite v = if Float.is_finite v then v else 1e12

(* The last line a run prints: the declared metrics only, context left
   out. Values carry every digit (%.17g), which the JSON emitter's fixed
   float format would round. Names and units are plain ASCII. *)
let result_line r =
  let declared m =
    List.mem_assoc m.name end_to_end || List.mem_assoc m.name per_layer
  in
  let metric m =
    Printf.sprintf {|"%s":{"value":%.17g,"unit":"%s"}|} m.name (finite m.value)
      m.unit
  in
  Printf.sprintf {|{"correct":%b,"attempted":%d,"failed":%d,"metrics":{%s}}|}
    (correct r) r.attempted r.failed
    (String.concat "," (List.map metric (List.filter declared r.metrics)))

let record_to_json r =
  J.Obj
    [
      ("workload", J.String r.workload);
      ("seed", J.Int r.seed);
      ("traced", J.Bool r.traced);
      ("build", J.String r.build);
      ("correct", J.Bool (correct r));
      ("attempted", J.Int r.attempted);
      ("failed", J.Int r.failed);
      ("failures", J.List (List.map (fun s -> J.String s) r.failures));
      ("digest", J.String r.digest);
      ( "metrics",
        J.Obj
          (List.map
             (fun m ->
               ( m.name,
                 J.Obj
                   [
                     ("value", J.Float (finite m.value));
                     ("unit", J.String m.unit);
                     ("n", J.Int m.n);
                   ] ))
             r.metrics) );
    ]

let record_of_json j =
  let ( let* ) = Option.bind in
  let str k = Option.bind (J.member k j) J.to_str in
  let int k = Option.bind (J.member k j) J.to_int in
  let* workload = str "workload" in
  let* seed = int "seed" in
  let* traced = Option.bind (J.member "traced" j) J.to_bool in
  let* build = str "build" in
  let* attempted = int "attempted" in
  let* failed = int "failed" in
  let* digest = str "digest" in
  let failures =
    match J.member "failures" j with
    | Some (J.List l) -> List.filter_map J.to_str l
    | _ -> []
  in
  let* metrics =
    match J.member "metrics" j with
    | Some (J.Obj fields) ->
        Some
          (List.filter_map
             (fun (name, o) ->
               let* value = Option.bind (J.member "value" o) J.to_float in
               let* unit = Option.bind (J.member "unit" o) J.to_str in
               let n =
                 Option.value ~default:1 (Option.bind (J.member "n" o) J.to_int)
               in
               Some { name; value; unit; n })
             fields)
    | _ -> None
  in
  Some
    { workload; seed; traced; build; attempted; failed; failures; digest; metrics }

(* A set file: every record of a [set] invocation. *)
let write_set ~path records =
  J.write_file ~path
    (J.Obj [ ("runs", J.List (List.map record_to_json records)) ])

let read_set path =
  let text =
    try Ok (In_channel.with_open_bin path In_channel.input_all)
    with Sys_error msg -> Error msg
  in
  match Result.bind text J.of_string with
  | Error msg -> Error (path ^ ": " ^ msg)
  | Ok j -> (
      match J.member "runs" j with
      | Some (J.List l) -> (
          let rs = List.filter_map record_of_json l in
          if List.length rs = List.length l then Ok rs
          else Error (path ^ ": malformed run record"))
      | _ -> Error (path ^ ": no \"runs\" list"))
