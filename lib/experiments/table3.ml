type row = {
  name : string;
  plain_best : int;
  plain_avg : float;
  repl_best : int;
  repl_avg : float;
  best_reduction : float;
  avg_reduction : float;
  plain_cpu_secs : float;
  repl_cpu_secs : float;
}

(* Best and average final cut over [runs] random starts with one F-M
   configuration. *)
let campaign ~runs ~seed cfg h =
  let t0 = Obs.Clock.cpu () in
  let best, mean = Core.Fm.multi_start ~runs ~seed cfg h in
  (Option.fold ~none:max_int ~some:fst best, mean, Obs.Clock.cpu () -. t0)

let run ?(runs = 20) ?(seed = 7) (e : Suite.entry) =
  let h = Lazy.force e.Suite.hypergraph in
  let total = Hypergraph.total_area h in
  let plain_cfg = Core.Fm.balance_config ~total_area:total () in
  let repl_cfg =
    Core.Fm.balance_config ~replication:(`Functional 0) ~total_area:total ()
  in
  let plain_best, plain_avg, plain_cpu_secs = campaign ~runs ~seed plain_cfg h in
  let repl_best, repl_avg, repl_cpu_secs = campaign ~runs ~seed repl_cfg h in
  let pct better base =
    if base = 0.0 then 0.0 else 100.0 *. (base -. better) /. base
  in
  {
    name = e.Suite.display;
    plain_best;
    plain_avg;
    repl_best;
    repl_avg;
    best_reduction = pct (float_of_int repl_best) (float_of_int plain_best);
    avg_reduction = pct repl_avg plain_avg;
    plain_cpu_secs;
    repl_cpu_secs;
  }

let average rows =
  let n = float_of_int (max 1 (List.length rows)) in
  let favg f = List.fold_left (fun acc r -> acc +. f r) 0.0 rows /. n in
  {
    name = "Avg.";
    plain_best = 0;
    plain_avg = favg (fun r -> r.plain_avg);
    repl_best = 0;
    repl_avg = favg (fun r -> r.repl_avg);
    best_reduction = favg (fun r -> r.best_reduction);
    avg_reduction = favg (fun r -> r.avg_reduction);
    plain_cpu_secs = favg (fun r -> r.plain_cpu_secs);
    repl_cpu_secs = favg (fun r -> r.repl_cpu_secs);
  }

let pp fmt rows =
  Format.fprintf fmt
    "@[<v>%-10s | %9s %9s | %9s %9s | %9s %9s@," "Circuit" "best cut"
    "avg cut" "best cut" "avg cut" "best red." "avg red.";
  Format.fprintf fmt "%-10s | %-19s | %-19s |@," "" "F-M min-cut"
    "  + Func. Repl.";
  List.iter
    (fun r ->
      Format.fprintf fmt
        "%-10s | %9d %9.1f | %9d %9.1f | %8.1f%% %8.1f%%@," r.name
        r.plain_best r.plain_avg r.repl_best r.repl_avg r.best_reduction
        r.avg_reduction)
    rows;
  let a = average rows in
  Format.fprintf fmt "%-10s | %9s %9s | %9s %9s | %8.1f%% %8.1f%%@]" a.name
    "" "" "" "" a.best_reduction a.avg_reduction

let cpu_overhead rows =
  let tp = List.fold_left (fun acc r -> acc +. r.plain_cpu_secs) 0.0 rows in
  let tr = List.fold_left (fun acc r -> acc +. r.repl_cpu_secs) 0.0 rows in
  if tp > 0.0 then 100.0 *. (tr -. tp) /. tp else 0.0
