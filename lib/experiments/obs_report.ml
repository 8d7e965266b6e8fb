module J = Obs.Json

let schema_version = 8

let replication_to_json = function
  | `None -> J.String "none"
  | `Functional t -> J.Obj [ ("functional_threshold", J.Int t) ]

let strategy_to_json = function
  | Core.Kway.Flat -> J.String "flat"
  | Core.Kway.Multilevel _ -> J.String "multilevel"

(* [jobs] is deliberately absent: it is an execution knob that never
   shapes the result, and omitting it is what lets the determinism gate
   diff documents produced under different --jobs settings. *)
let options_to_json (o : Core.Kway.options) =
  J.Obj
    [
      ("runs", J.Int o.Core.Kway.runs);
      ("seed", J.Int o.Core.Kway.seed);
      ("replication", replication_to_json o.Core.Kway.replication);
      (* New in v5. Part of the result's identity (unlike [jobs]), so the
         service's options fingerprint — the md5 of this rendering —
         separates cache entries produced under different objectives. *)
      ("objective", J.String o.Core.Kway.objective.Fpga.Objective.name);
      (* New in v6: the partitioning strategy, "flat" or (since v8)
         "multilevel"; part of the fingerprint for the same reason as
         [objective] — a flat and a multilevel run of one circuit are
         different results. *)
      ("strategy", strategy_to_json o.Core.Kway.strategy);
    ]

let ( let* ) = Result.bind

let replication_of_json = function
  | J.String "none" -> Ok `None
  | J.Obj _ as o -> (
      match Option.bind (J.member "functional_threshold" o) J.to_int with
      | Some t -> Ok (`Functional t)
      | None -> Error "ill-typed field \"replication\"")
  | _ -> Error "ill-typed field \"replication\""

let strategy_of_json = function
  | J.String "flat" -> Ok Core.Kway.Flat
  | J.String "multilevel" ->
      Ok (Core.Kway.Multilevel Core.Kway.Options.default_multilevel)
  | _ -> Error "ill-typed field \"strategy\""

(* The keys [options_to_json] writes, in its order: the only ones
   [options_of_json] reads. *)
let option_keys =
  match options_to_json Core.Kway.Options.default with
  | J.Obj fields -> List.map fst fields
  | _ -> []

(* A key the codec does not read (a misspelling, or a knob an older
   protocol carried) is refused rather than dropped, and so is a value
   that is no object: either would run the default options and cache the
   result under their key. *)
let known_keys = function
  | J.Obj fields -> (
      match
        List.find_opt (fun (k, _) -> not (List.mem k option_keys)) fields
      with
      | Some (k, _) -> Error (Printf.sprintf "unknown option key %S" k)
      | None -> Ok ())
  | _ -> Error "ill-typed field \"options\""

let options_of_json json =
  let* () = known_keys json in
  let d = Core.Kway.Options.default in
  let* runs = J.opt_field "runs" J.to_int ~default:d.Core.Kway.runs json in
  let* seed = J.opt_field "seed" J.to_int ~default:d.Core.Kway.seed json in
  let* replication =
    match J.member "replication" json with
    | None -> Ok d.Core.Kway.replication
    | Some r -> replication_of_json r
  in
  let* objective =
    match J.member "objective" json with
    | None -> Ok d.Core.Kway.objective
    | Some (J.String s) -> Fpga.Objective.of_name s
    | Some _ -> Error "ill-typed field \"objective\""
  in
  let* strategy =
    match J.member "strategy" json with
    | None -> Ok d.Core.Kway.strategy
    | Some s -> strategy_of_json s
  in
  match
    Core.Kway.Options.make ~runs ~seed ~replication ~objective ~strategy ()
  with
  | options -> Ok options
  | exception Invalid_argument msg -> Error msg

let part_to_json (p : Core.Kway.part) =
  J.Obj
    [
      ("device", J.String p.Core.Kway.device.Fpga.Device.name);
      ("clbs", J.Int p.Core.Kway.clbs);
      ("iobs", J.Int p.Core.Kway.iobs);
    ]

let result_to_json (r : Core.Kway.result) =
  let s = r.Core.Kway.summary in
  J.Obj
    [
      ("num_partitions", J.Int s.Fpga.Cost.num_partitions);
      ("total_cost", J.Float s.Fpga.Cost.total_cost);
      ("avg_clb_utilization", J.Float s.Fpga.Cost.avg_clb_utilization);
      ("avg_iob_utilization", J.Float s.Fpga.Cost.avg_iob_utilization);
      ("total_clbs", J.Int s.Fpga.Cost.total_clbs);
      ("total_iobs", J.Int s.Fpga.Cost.total_iobs);
      ("replicated_cells", J.Int r.Core.Kway.replicated_cells);
      ("total_cells", J.Int r.Core.Kway.total_cells);
      ("runs", J.Int r.Core.Kway.runs);
      ("feasible_runs", J.Int r.Core.Kway.feasible_runs);
      ("wall_secs", J.Float r.Core.Kway.wall_secs);
      ("cpu_secs", J.Float r.Core.Kway.cpu_secs);
      (* New in v5: per-axis aggregate utilization. Every key ends in
         [_util], so the determinism scrub masks the whole object the way
         it masks the [_secs] stamps (the ratios are derived data). *)
      ( "resource_util",
        J.Obj
          (List.map
             (fun (k, v) -> (k, J.Float v))
             s.Fpga.Cost.resource_util) );
      ("parts", J.List (List.map part_to_json r.Core.Kway.parts));
    ]

let doc ~name ~options ~result ~snapshot =
  J.Obj
    [
      ("schema_version", J.Int schema_version);
      ("circuit", J.String name);
      ("seed", J.Int options.Core.Kway.seed);
      ("options", options_to_json options);
      (match result with
      | Some r -> ("result", result_to_json r)
      | None -> ("interrupted", J.Bool true));
      ("obs", Obs.Snapshot.to_json snapshot);
    ]

let write ~path j = J.write_file ~path j

(* ------------------------------------------------------------------ *)
(* Convergence report                                                 *)
(* ------------------------------------------------------------------ *)

(* Interval-union busy time per trace track. Spans nest (a run span
   contains its splits contain their passes), so summing durations would
   multiply-count; merging the per-tid intervals measures each instant of
   domain activity exactly once. *)
let busy_by_tid spans =
  let by_tid = Hashtbl.create 8 in
  List.iter
    (fun (s : Obs.Trace.span) ->
      let l = try Hashtbl.find by_tid s.Obs.Trace.span_tid with Not_found -> [] in
      Hashtbl.replace by_tid s.Obs.Trace.span_tid
        ((s.Obs.Trace.begin_secs, s.Obs.Trace.end_secs) :: l))
    spans;
  Hashtbl.fold
    (fun tid intervals acc ->
      let sorted = List.sort compare intervals in
      let busy, last =
        List.fold_left
          (fun (busy, cur) (b, e) ->
            match cur with
            | None -> (busy, Some (b, e))
            | Some (cb, ce) ->
                if b <= ce then (busy, Some (cb, Float.max ce e))
                else (busy +. (ce -. cb), Some (b, e)))
          (0.0, None) sorted
      in
      let busy =
        match last with None -> busy | Some (cb, ce) -> busy +. (ce -. cb)
      in
      (tid, busy) :: acc)
    by_tid []
  |> List.sort compare

let int_field key e =
  match List.assoc_opt key e.Obs.Snapshot.fields with
  | Some (J.Int i) -> Some i
  | _ -> None

let bool_field key e =
  match List.assoc_opt key e.Obs.Snapshot.fields with
  | Some (J.Bool b) -> Some b
  | _ -> None

let pp_histogram fmt (name, (h : Obs.Snapshot.histogram)) =
  Format.fprintf fmt "  %-16s n=%-7d sum=%-9d@," name h.Obs.Snapshot.count
    h.Obs.Snapshot.sum;
  let peak =
    List.fold_left (fun acc (_, n) -> max acc n) 1 h.Obs.Snapshot.buckets
  in
  List.iter
    (fun (b, n) ->
      let bar = String.make (max 1 (n * 40 / peak)) '#' in
      Format.fprintf fmt "    %-24s %8d %s@," (Obs.bucket_label b) n bar)
    h.Obs.Snapshot.buckets

let pp_convergence ~snapshot ~trace ~wall_secs fmt =
  Format.fprintf fmt "@[<v>convergence@,";
  (* Pass-by-pass cutsize trajectory, aggregated over every F-M restart:
     how fast do passes stop paying? *)
  let per_pass = Hashtbl.create 16 in
  List.iter
    (fun e ->
      if e.Obs.Snapshot.name = "fm.pass" then
        match (int_field "pass" e, int_field "cut" e) with
        | Some pass, Some cut ->
            let n, total, best, improved =
              try Hashtbl.find per_pass pass with Not_found -> (0, 0, max_int, 0)
            in
            let imp =
              match bool_field "improved" e with Some true -> 1 | _ -> 0
            in
            Hashtbl.replace per_pass pass
              (n + 1, total + cut, min best cut, improved + imp)
        | _ -> ())
    snapshot.Obs.Snapshot.events;
  let passes =
    Hashtbl.fold (fun p v acc -> (p, v) :: acc) per_pass [] |> List.sort compare
  in
  if passes = [] then Format.fprintf fmt "  passes (none)@,"
  else begin
    Format.fprintf fmt "  %-6s %8s %10s %9s %9s@," "pass" "restarts" "mean cut"
      "min cut" "improved";
    List.iter
      (fun (p, (n, total, best, improved)) ->
        Format.fprintf fmt "  %-6d %8d %10.1f %9d %8.0f%%@," p n
          (float_of_int total /. float_of_int n)
          best
          (100.0 *. float_of_int improved /. float_of_int n))
      passes
  end;
  (* The recorded distributions: per-op F-M gains, bucket-scan lengths,
     per-attempt and per-split cuts. *)
  (match snapshot.Obs.Snapshot.histograms with
  | [] -> Format.fprintf fmt "  histograms (none)@,"
  | hs -> List.iter (pp_histogram fmt) hs);
  (* Per-domain utilization: busy wall time on each trace track over the
     run's wall clock — the honest denominator for any speedup claim. *)
  (match busy_by_tid trace with
  | [] -> Format.fprintf fmt "  domain utilization (none: trace empty)@,"
  | util ->
      Format.fprintf fmt "  %-8s %12s %12s@," "domain" "busy wall" "utilization";
      List.iter
        (fun (tid, busy) ->
          Format.fprintf fmt "  %-8d %11.3fs %11.1f%%@," tid busy
            (100.0 *. busy /. Float.max 1e-9 wall_secs))
        util;
      Format.fprintf fmt
        "  (utilization = busy wall per domain track / %.3fs run wall)@,"
        wall_secs);
  Format.fprintf fmt "@]"
