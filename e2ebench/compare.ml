(* [compare OLD NEW]: one row per workload x end-to-end metric, with each
   side's median, quartiles and run count, and a verdict under the bounds
   BENCHMARK.json fixes:
   - unresolved: the old side's own quartile spread exceeds the bound
     (unless every new run beats every old run, a clear improvement);
   - worse: the new median is worse than the old by more than the bound;
   - improved: better by more than the old side's quartile spread,
     winning at least nine in ten same-seed pairs;
   - unchanged: otherwise.
   Cost and IOB figures are exact functions of the seed and the code, so
   where both sides ran the same seeds they are judged pair by pair
   instead (see [exact_verdict]). Context metrics (latency, CPU time) get
   rows without a verdict. Runs of one build and seed must produce one
   result digest; a disagreement is a defect of the benchmark, not of the
   change. *)

module J = Obs.Json

type bound = {
  name : string;
  unit : string;
  lower_better : bool;
  bound : float;
}

type spec = {
  workloads : string list;
  end_to_end : bound list;
  per_layer : (string * string) list;
}

let read_spec path =
  let ( let* ) = Result.bind in
  let* text =
    try Ok (In_channel.with_open_bin path In_channel.input_all)
    with Sys_error msg -> Error msg
  in
  let* j = J.of_string text in
  let list k = match J.member k j with Some (J.List l) -> l | _ -> [] in
  let str k o = Option.value ~default:"" (Option.bind (J.member k o) J.to_str) in
  let bound o =
    {
      name = str "name" o;
      unit = str "unit" o;
      lower_better = String.equal (str "better" o) "lower";
      bound = Option.value ~default:0.0 (Option.bind (J.member "bound" o) J.to_float);
    }
  in
  Ok
    {
      workloads = List.map (str "name") (list "workloads");
      end_to_end = List.map bound (list "end_to_end");
      per_layer = List.map (fun o -> (str "name" o, str "unit" o)) (list "per_layer");
    }

let value (r : Metrics.record) name =
  List.find_map
    (fun (m : Metrics.metric) ->
      if String.equal m.Metrics.name name then Some m.Metrics.value else None)
    r.Metrics.metrics

(* [old_runs] and [new_runs] are (seed, value) series. *)
let verdict b ~old_runs ~new_runs =
  let vals runs = List.filter_map snd runs in
  let olds = vals old_runs and news = vals new_runs in
  let better x y = if b.lower_better then x < y else x > y in
  let mo = Metrics.median olds and mn = Metrics.median news in
  let q1, _, q3 = Metrics.quartiles olds in
  let scale = Float.max (Float.abs mo) 1e-12 in
  (* Positive when the new median is worse, as a share of the old one. *)
  let worse = (if b.lower_better then mn -. mo else mo -. mn) /. scale in
  let pairs =
    List.filter_map
      (fun (seed, v) ->
        match (v, List.assoc_opt seed new_runs) with
        | Some o, Some (Some n) -> Some (o, n)
        | _ -> None)
      old_runs
  in
  let wins = List.length (List.filter (fun (o, n) -> better n o) pairs) in
  if olds = [] || news = [] then "missing"
  else if (q3 -. q1) /. scale > b.bound then
    if List.for_all (fun n -> List.for_all (better n) olds) news then "improved"
    else "unresolved"
  else if worse > b.bound then "worse"
  else if
    (-.worse *. scale > q3 -. q1)
    && pairs <> []
    && float_of_int wins >= 0.9 *. float_of_int (List.length pairs)
  then "improved"
  else "unchanged"

(* The metrics two runs of one seed reproduce exactly, and the workload
   whose flat path test/golden pins, where no same-seed change passes. *)
let exact_metrics = [ "cost_per_cell"; "iob_util" ]
let pinned_workload = "paper-suite"

(* Same-seed tolerance of an exact metric: none on the pinned workload,
   1 % elsewhere. The BENCHMARK.json bounds are sized for the spread
   between seeds, which is not noise when the seeds are paired. *)
let exact_tolerance workload =
  if String.equal workload pinned_workload then 0.0 else 0.01

(* An exact metric over the seeds both sides ran: on the pinned workload
   any worse pair is worse; elsewhere the mean same-seed change decides,
   against the tolerance. [None] when no seed is shared. *)
let exact_verdict b ~workload ~old_runs ~new_runs =
  let changes =
    List.filter_map
      (fun (seed, v) ->
        match (v, List.assoc_opt seed new_runs) with
        | Some o, Some (Some n) ->
            let d = (n -. o) /. Float.max (Float.abs o) 1e-12 in
            Some (if b.lower_better then d else -.d)
        | _ -> None)
      old_runs
  in
  let tol = exact_tolerance workload in
  let eps = 1e-12 in
  if changes = [] then None
  else if tol = 0.0 then
    Some
      (if List.exists (fun d -> d > eps) changes then "worse"
       else if List.exists (fun d -> d < -.eps) changes then "improved"
       else "unchanged")
  else
    let mean =
      List.fold_left ( +. ) 0.0 changes /. float_of_int (List.length changes)
    in
    Some
      (if mean > tol then "worse" else if mean < -.tol then "improved" else "unchanged")

(* Seeds both sides ran whose result digests differ: on the pinned
   workload a changed result is a regression whatever its cost. *)
let changed_results ~workload o n =
  let digests runs =
    List.filter_map
      (fun (r : Metrics.record) ->
        if Metrics.correct r then Some (r.Metrics.seed, r.Metrics.digest) else None)
      runs
  in
  let news = digests n in
  let changed =
    List.sort_uniq compare
      (List.filter_map
         (fun (seed, d) ->
           match List.assoc_opt seed news with
           | Some d' when not (String.equal d d') -> Some seed
           | _ -> None)
         (digests o))
  in
  if changed = [] || not (String.equal workload pinned_workload) then None
  else
    Some
      (Printf.sprintf "RESULT CHANGED %s seeds %s: the pinned flat path moved"
         workload
         (String.concat "," (List.map string_of_int changed)))

(* Same build, workload and seed, different digest. *)
let defects records =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (r : Metrics.record) ->
      let key = (r.Metrics.build, r.Metrics.workload, r.Metrics.seed) in
      let seen = Option.value ~default:[] (Hashtbl.find_opt tbl key) in
      Hashtbl.replace tbl key (r.Metrics.digest :: seen))
    records;
  Hashtbl.fold
    (fun (_, w, s) digests acc ->
      match List.sort_uniq compare digests with
      | [] | [ _ ] -> acc
      | ds ->
          Printf.sprintf "DEFECT %s seed %d: one build gave %d result digests" w s
            (List.length ds)
          :: acc)
    tbl []

let describe values =
  let q1, _, q3 = Metrics.quartiles values in
  Printf.sprintf "%11.4g [%.4g, %.4g] n=%d" (Metrics.median values) q1 q3
    (List.length values)

let run ~spec ~old_path ~new_path =
  let ( let* ) = Result.bind in
  let* spec = read_spec spec in
  let* olds = Metrics.read_set old_path in
  let* news = Metrics.read_set new_path in
  let untraced = List.filter (fun (r : Metrics.record) -> not r.Metrics.traced) in
  let olds = untraced olds and news = untraced news in
  let failed =
    List.filter_map
      (fun (r : Metrics.record) ->
        if Metrics.correct r then None
        else
          Some
            (Printf.sprintf "FAILED %s seed %d: %d failed jobs" r.Metrics.workload
               r.Metrics.seed r.Metrics.failed))
      (olds @ news)
  in
  let flagged = ref (failed @ defects (olds @ news)) in
  Printf.printf "%-13s %-16s %-38s %-38s %8s  %s\n" "workload" "metric"
    "old median [q1, q3]" "new median [q1, q3]" "change" "verdict";
  let rows =
    List.map (fun b -> (b.name, Some b)) spec.end_to_end
    @ List.map (fun (name, _) -> (name, None)) Metrics.context
  in
  List.iter
    (fun w ->
      let runs =
        List.filter (fun (r : Metrics.record) -> String.equal r.Metrics.workload w)
      in
      let o = runs olds and n = runs news in
      Option.iter
        (fun msg -> flagged := msg :: !flagged)
        (changed_results ~workload:w o n);
      if o <> [] || n <> [] then
        List.iter
          (fun (name, b) ->
            let series =
              List.map (fun (r : Metrics.record) -> (r.Metrics.seed, value r name))
            in
            let old_runs = series o and new_runs = series n in
            let v =
              match b with
              | Some b when List.mem name exact_metrics -> (
                  match exact_verdict b ~workload:w ~old_runs ~new_runs with
                  | Some v -> v
                  | None -> verdict b ~old_runs ~new_runs)
              | Some b -> verdict b ~old_runs ~new_runs
              | None -> "context"
            in
            if v = "worse" then
              flagged := Printf.sprintf "WORSE %s %s" w name :: !flagged;
            let olds = List.filter_map snd old_runs in
            let news = List.filter_map snd new_runs in
            let mo = Metrics.median olds in
            Printf.printf "%-13s %-16s %-38s %-38s %+7.2f%%  %s\n" w name
              (describe olds) (describe news)
              (100.0 *. (Metrics.median news -. mo) /. Float.max (Float.abs mo) 1e-12)
              v)
          rows)
    spec.workloads;
  List.iter print_endline (List.rev !flagged);
  Ok (!flagged = [])
