type setting = Baseline | Threshold of int

type outcome = {
  feasible : bool;
  cost : float;
  clb_util : float;
  iob_util : float;
  replicated_pct : float;
  cpu_secs : float;
  k : int;
  devices : (string * int) list;
}

type row = {
  name : string;
  results : (setting * outcome) list;
}

let default_settings =
  [ Baseline; Threshold 0; Threshold 1; Threshold 2; Threshold 3 ]

let infeasible cpu_secs =
  {
    feasible = false;
    cost = nan;
    clb_util = nan;
    iob_util = nan;
    replicated_pct = nan;
    cpu_secs;
    k = 0;
    devices = [];
  }

let run ?(runs = 5) ?(seed = 1) ?(settings = default_settings)
    ?(library = Fpga.Library.xc3000) (e : Suite.entry) =
  let h = Lazy.force e.Suite.hypergraph in
  let one setting =
    let replication =
      match setting with
      | Baseline -> `None
      | Threshold t -> `Functional t
    in
    let options = Core.Kway.Options.make ~runs ~seed ~replication () in
    let t0 = Obs.Clock.cpu () in
    match Core.Kway.partition ~options ~library h with
    | Error _ -> (setting, infeasible (Obs.Clock.cpu () -. t0))
    | Ok r ->
        (match Core.Kway.check h r with
        | Ok () -> ()
        | Error msg ->
            invalid_arg ("Kway_campaign: unsound partition: " ^ msg));
        let s = r.Core.Kway.summary in
        ( setting,
          {
            feasible = true;
            cost = s.Fpga.Cost.total_cost;
            clb_util = s.Fpga.Cost.avg_clb_utilization;
            iob_util = s.Fpga.Cost.avg_iob_utilization;
            replicated_pct =
              100.0
              *. float_of_int r.Core.Kway.replicated_cells
              /. float_of_int (max 1 r.Core.Kway.total_cells);
            cpu_secs = r.Core.Kway.cpu_secs;
            k = s.Fpga.Cost.num_partitions;
            devices = s.Fpga.Cost.device_counts;
          } )
  in
  { name = e.Suite.display; results = List.map one settings }

(* ------------------------------------------------------------------ *)
(* Rendering                                                          *)
(* ------------------------------------------------------------------ *)

let find_setting row s = List.assoc_opt s row.results

let thresholds rows =
  (* Threshold settings present in the campaign, ascending. *)
  match rows with
  | [] -> []
  | r :: _ ->
      List.filter_map
        (function Threshold t, _ -> Some t | Baseline, _ -> None)
        r.results
      |> List.sort_uniq compare

let fmt_pct fmt v = if Float.is_nan v then Format.fprintf fmt "%6s" "-" else Format.fprintf fmt "%5.1f%%" v

let mean l =
  match List.filter (fun v -> not (Float.is_nan v)) l with
  | [] -> nan
  | l -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)

let pp_table4 fmt rows =
  let ts = thresholds rows in
  Format.fprintf fmt "@[<v>%-10s |" "Circuit";
  List.iter (fun t -> Format.fprintf fmt " %6s" (Printf.sprintf "T=%d" t)) ts;
  Format.fprintf fmt " | %9s %9s@," "CPU base" "CPU T=3";
  List.iter
    (fun r ->
      Format.fprintf fmt "%-10s |" r.name;
      List.iter
        (fun t ->
          match find_setting r (Threshold t) with
          | Some o when o.feasible -> Format.fprintf fmt " %a" fmt_pct o.replicated_pct
          | _ -> Format.fprintf fmt " %6s" "-")
        ts;
      let cpu s =
        match find_setting r s with Some o -> o.cpu_secs | None -> nan
      in
      Format.fprintf fmt " | %8.1fs %8.1fs@," (cpu Baseline)
        (cpu (Threshold 3)))
    rows;
  Format.fprintf fmt "%-10s |" "Avg.";
  List.iter
    (fun t ->
      let vals =
        List.filter_map
          (fun r ->
            match find_setting r (Threshold t) with
            | Some o when o.feasible -> Some o.replicated_pct
            | _ -> None)
          rows
      in
      Format.fprintf fmt " %a" fmt_pct (mean vals))
    ts;
  Format.fprintf fmt " |@,(percentage of cells replicated per threshold; \
                      CPU is process CPU time of the full multi-start call)@]"

(* Shared layout of Tables V-VII: baseline column, then per-threshold value
   and delta columns. *)
let pp_value_table fmt rows ~header ~baseline_of ~value_of ~delta ~pp_value
    ~footer =
  let ts = thresholds rows in
  Format.fprintf fmt "@[<v>%-10s | %8s |" "Circuit" header;
  List.iter
    (fun t -> Format.fprintf fmt " %8s %7s |" (Printf.sprintf "T=%d" t) "chg")
    ts;
  Format.fprintf fmt "@,";
  List.iter
    (fun r ->
      let base =
        match find_setting r Baseline with
        | Some o when o.feasible -> baseline_of o
        | _ -> nan
      in
      Format.fprintf fmt "%-10s | %a |" r.name pp_value base;
      List.iter
        (fun t ->
          match find_setting r (Threshold t) with
          | Some o when o.feasible ->
              let v = value_of o in
              Format.fprintf fmt " %a %6.1f%% |" pp_value v (delta ~base ~v)
          | _ -> Format.fprintf fmt " %8s %7s |" "-" "-")
        ts;
      Format.fprintf fmt "@,")
    rows;
  (* Averages line over feasible entries. *)
  let base_vals =
    List.filter_map
      (fun r ->
        match find_setting r Baseline with
        | Some o when o.feasible -> Some (baseline_of o)
        | _ -> None)
      rows
  in
  Format.fprintf fmt "%-10s | %a |" "Avg." pp_value (mean base_vals);
  List.iter
    (fun t ->
      let vals =
        List.filter_map
          (fun r ->
            match find_setting r (Threshold t) with
            | Some o when o.feasible -> Some (value_of o)
            | _ -> None)
          rows
      in
      let deltas =
        List.filter_map
          (fun r ->
            match (find_setting r Baseline, find_setting r (Threshold t)) with
            | Some b, Some o when b.feasible && o.feasible ->
                Some (delta ~base:(baseline_of b) ~v:(value_of o))
            | _ -> None)
          rows
      in
      Format.fprintf fmt " %a %6.1f%% |" pp_value (mean vals) (mean deltas))
    ts;
  Format.fprintf fmt "@,%s@]" footer

let pp_pct fmt v =
  if Float.is_nan v then Format.fprintf fmt "%7s" "-"
  else Format.fprintf fmt "%6.1f%%" (100.0 *. v)

let pp_cost fmt v =
  if Float.is_nan v then Format.fprintf fmt "%8s" "-"
  else Format.fprintf fmt "%8.0f" v

let pp_table5 fmt rows =
  pp_value_table fmt rows ~header:"base"
    ~baseline_of:(fun o -> o.clb_util)
    ~value_of:(fun o -> o.clb_util)
    ~delta:(fun ~base ~v -> 100.0 *. (v -. base))
      (* percentage-point increase *)
    ~pp_value:pp_pct
    ~footer:
      "(average CLB utilization; chg = percentage-point increase over the \
       no-replication baseline)"

let pp_table6 fmt rows =
  pp_value_table fmt rows ~header:"base"
    ~baseline_of:(fun o -> o.cost)
    ~value_of:(fun o -> o.cost)
    ~delta:(fun ~base ~v -> 100.0 *. (base -. v) /. base)
    ~pp_value:pp_cost
    ~footer:
      "(total device cost, eq. (1); chg = percent cost reduction vs the \
       baseline)"

let pp_table7 fmt rows =
  pp_value_table fmt rows ~header:"base"
    ~baseline_of:(fun o -> o.iob_util)
    ~value_of:(fun o -> o.iob_util)
    ~delta:(fun ~base ~v -> 100.0 *. (base -. v) /. base)
    ~pp_value:pp_pct
    ~footer:
      "(average IOB utilization, eq. (2); chg = percent reduction vs the \
       baseline)"
