open Kway_types

(* External nets that actually consume an IOB: a net flagged external but
   incident to no cell (a dead primary after mapping) never has to enter
   the device. Counting it would overstate every part's terminal usage —
   the telemetry property tests caught exactly that on generated circuits
   with unused primary inputs. *)
let count_external (h : Hypergraph.t) =
  let acc = ref 0 in
  Array.iteri
    (fun n ext ->
      if ext && Array.length h.Hypergraph.net_cells.(n) > 0 then Stdlib.incr acc)
    h.Hypergraph.net_external;
  !acc

(* One feasible split attempt: side A must fit the device window. Returns
   the best feasible state over [attempts] random restarts.

   The restarts are independent given their initial assignment, so with
   [attempt_jobs > 1] they run on the pool. Determinism: the initial
   assignments are drawn from the run RNG up front, in restart order, so
   the stream consumed is identical however the restarts then execute; each
   restart records F-M telemetry into a forked sink, merged back in restart
   order; and the winner fold applies the sequential first-best tie-break. *)
let try_device ~opts ~attempt_jobs ~rng ~obs rest (dev : Fpga.Device.t) =
  let area = Hypergraph.total_area rest in
  (* Side B keeps at least one CLB: the remainder is never empty. *)
  let w =
    Fpga.Objective.narrow ~hi:(area - 1)
      (Fpga.Objective.window opts.objective dev)
  in
  let lo = w.lo.(Fpga.Resource.clb) and hi = w.hi.(Fpga.Resource.clb) in
  if hi < lo then None
  else begin
    let cfg =
      Fm.window_config
        ~objective:(fm_obj_of opts.objective.Fpga.Objective.split_objective)
        ~replication:opts.replication ~max_passes:opts.max_passes
        ~should_stop:opts.should_stop ~a:w ()
    in
    (* Aim near the top of the window: fuller devices mean fewer devices
       and lower total cost (objective 1). *)
    let target = max lo (hi * 9 / 10) in
    let p_a = float_of_int target /. float_of_int area in
    let n = Hypergraph.num_cells rest in
    let inits = Array.init opts.fm_attempts (fun _ -> Array.make n false) in
    for a = 0 to opts.fm_attempts - 1 do
      let init = inits.(a) in
      for c = 0 to n - 1 do
        init.(c) <- not (Netlist.Rng.chance rng p_a)
      done
    done;
    let attempts =
      Parallel.Pool.run ~jobs:attempt_jobs opts.fm_attempts (fun a ->
          (* The fork runs on the executing domain, so the worker id read
             here is the trace track the restart's spans belong to. *)
          let child = Obs.fork ~track:(Parallel.Pool.worker_id ()) obs in
          let st =
            Partition_state.create rest ~init_on_b:(fun c -> inits.(a).(c))
          in
          let score = Fm.run_staged ~obs:child cfg st in
          (child, score, st))
    in
    let best = ref None in
    Array.iter
      (fun (child, score, st) ->
        Obs.merge_into ~into:obs child;
        match score with
        | 0, cut, neg_area -> (
            match !best with
            | Some (k, _) when k <= (cut, neg_area) -> ()
            | _ -> best := Some ((cut, neg_area), st))
        | _ -> ())
      attempts;
    Option.map snd !best
  end

let run_once ~library ~opts ~attempt_jobs ?device_limit ~rng ~obs hg =
  let obj = opts.objective in
  let identity =
    Array.init (Hypergraph.num_cells hg) (fun c ->
        let outputs = (Hypergraph.cell hg c).Hypergraph.outputs in
        (c, Bitvec.full (Array.length outputs)))
  in
  let rec loop rest orig_of parts guard =
    if opts.should_stop () then Error cancelled
    else if guard > Hypergraph.total_area hg + 8 then
      Error "k-way driver failed to terminate (internal)"
    else if Hypergraph.num_cells rest = 0 then Ok (List.rev parts)
    else begin
      let area = Hypergraph.total_area rest in
      let ext = count_external rest in
      let rest_demand = Hypergraph.total_demand rest in
      match
        Fpga.Objective.cheapest ~relax_low:true obj library ~demand:rest_demand
          ~iobs:ext
      with
      | Some dev ->
          (* The whole remainder fits one device. *)
          if Obs.enabled obs then
            Obs.event obs "kway.fit"
              [
                ("step", Obs.Json.Int (List.length parts));
                ("device", Obs.Json.String dev.Fpga.Device.name);
                ("clbs", Obs.Json.Int area);
                ("iobs", Obs.Json.Int ext);
              ];
          Ok
            (List.rev
               ({ device = dev; members = Array.to_list orig_of; clbs = area;
                  iobs = ext; used = rest_demand }
               :: parts))
      | None -> (
          (* Split off one device: evaluate every candidate device and keep
             the split with the best local cost efficiency (price of the
             device actually used per CLB covered), ties by cut. *)
          let step = List.length parts in
          (* [device_limit] (multilevel coarse stage only): stop evaluating
             candidate devices once that many feasible splits exist. The
             list is in cost-efficiency order, so the first feasible
             candidates are the ones the rate ranking below would almost
             always pick anyway; on a ~k-device decomposition this turns
             k × |library| F-M searches into ~k × limit. [None] (the flat
             path) evaluates every device, byte-identical to before. *)
          let candidates =
            Obs.span obs (Printf.sprintf "split%d" step) (fun () ->
                let enough acc =
                  match device_limit with
                  | Some l -> List.length acc >= l
                  | None -> false
                in
                let consider =
                  (fun dev ->
                    let attempt =
                      Obs.span obs ("dev-" ^ dev.Fpga.Device.name) (fun () ->
                          try_device ~opts ~attempt_jobs ~rng ~obs rest dev)
                    in
                    if Obs.enabled obs then Obs.incr obs "kway.device_attempts";
                    match attempt with
                    | None ->
                        if Obs.enabled obs then
                          Obs.event obs "kway.device_attempt"
                            [
                              ("step", Obs.Json.Int step);
                              ("device", Obs.Json.String dev.Fpga.Device.name);
                              ("feasible", Obs.Json.Bool false);
                            ];
                        None
                    | Some st ->
                        if Obs.enabled obs then
                          Obs.observe obs "kway.attempt_cut"
                            (Partition_state.cut st);
                        let clbs = Partition_state.area st Partition_state.A in
                        let iobs =
                          Partition_state.terminals st Partition_state.A
                        in
                        let used =
                          Partition_state.resources st Partition_state.A
                        in
                        let dev =
                          right_size ~relax_low:false obj library ~demand:used
                            ~iobs dev
                        in
                        if Obs.enabled obs then
                          Obs.event obs "kway.device_attempt"
                            [
                              ("step", Obs.Json.Int step);
                              ("device", Obs.Json.String dev.Fpga.Device.name);
                              ("feasible", Obs.Json.Bool true);
                              ("clbs", Obs.Json.Int clbs);
                              ("iobs", Obs.Json.Int iobs);
                              ("cut", Obs.Json.Int (Partition_state.cut st));
                            ];
                        (* Local cost efficiency under the objective: what
                           this split spends (device plus interconnect) per
                           CLB covered. The paper's net cost is 0.0, so the
                           sum is bitwise the legacy price-per-CLB. *)
                        let rate =
                          (obj.Fpga.Objective.device_cost dev
                          +. obj.Fpga.Objective.net_cost
                               ~nets:(Partition_state.cut st))
                          /. float_of_int (max 1 clbs)
                        in
                        Some
                          ( (rate, Partition_state.cut st),
                            (dev, st, clbs, iobs, used) ))
                in
                let rec gather acc = function
                  | [] -> List.rev acc
                  | _ when enough acc -> List.rev acc
                  | dev :: devs -> (
                      match consider dev with
                      | None -> gather acc devs
                      | Some c -> gather (c :: acc) devs)
                in
                gather [] (Fpga.Library.by_efficiency library))
          in
          match
            List.sort (fun (ka, _) (kb, _) -> compare ka kb) candidates
          with
          | [] ->
              if Obs.enabled obs then
                Obs.event obs "kway.split_failed"
                  [ ("step", Obs.Json.Int step) ];
              Error "no feasible split for the remainder"
          | (_, (dev, st, clbs, iobs, used)) :: _ ->
              if Obs.enabled obs then begin
                Obs.incr obs "kway.splits";
                Obs.observe obs "kway.split_cut" (Partition_state.cut st);
                Obs.event obs "kway.split"
                  [
                    ("step", Obs.Json.Int step);
                    ("device", Obs.Json.String dev.Fpga.Device.name);
                    ("clbs", Obs.Json.Int clbs);
                    ("iobs", Obs.Json.Int iobs);
                    ("cut", Obs.Json.Int (Partition_state.cut st));
                    ( "remaining_clbs",
                      Obs.Json.Int (Partition_state.area st Partition_state.B)
                    );
                  ]
              end;
              let members_a =
                Partition_state.side_copies st Partition_state.A
              in
              let part =
                { device = dev; members = List.map (lift orig_of) members_a;
                  clbs; iobs; used }
              in
              let specs_b = Partition_state.side_copies st Partition_state.B in
              let rest', spec_arr = Hypergraph.induce_copies rest specs_b in
              loop rest'
                (Array.map (lift orig_of) spec_arr)
                (part :: parts) (guard + 1))
    end
  in
  loop hg identity [] 0

(* One multi-start run, self-contained: its own RNG derived from
   (seed, run index) and a private forked sink, so runs can execute on any
   domain in any order. The returned sink holds the run's whole telemetry,
   the ["kway.run"] summary event included. *)
let run_trial ~library ~options ~attempt_jobs ?device_limit ~obs hg r =
  let child = Obs.fork ~pid:r ~track:(Parallel.Pool.worker_id ()) obs in
  let rng = Netlist.Rng.create (options.seed + (r * 7919)) in
  let outcome =
    Obs.span child (Printf.sprintf "run%d" r) (fun () ->
        run_once ~library ~opts:options ~attempt_jobs ?device_limit ~rng
          ~obs:child hg)
  in
  if Obs.enabled child then Obs.incr child "kway.runs";
  match outcome with
  | Error reason ->
      if Obs.enabled child then
        Obs.event child "kway.run"
          [
            ("run", Obs.Json.Int r);
            ("feasible", Obs.Json.Bool false);
            ("reason", Obs.Json.String reason);
          ];
      (child, None)
  | Ok parts ->
      let summary, replicated, _ = summarize_parts hg parts in
      if Obs.enabled child then begin
        Obs.incr child "kway.feasible_runs";
        Obs.event child "kway.run"
          [
            ("run", Obs.Json.Int r);
            ("feasible", Obs.Json.Bool true);
            ("parts", Obs.Json.Int summary.Fpga.Cost.num_partitions);
            ("total_cost", Obs.Json.Float summary.Fpga.Cost.total_cost);
            ("total_iobs", Obs.Json.Int summary.Fpga.Cost.total_iobs);
            ("replicated_cells", Obs.Json.Int replicated);
          ]
      end;
      (child, Some (parts, summary))

let flat_partition ?device_limit ~obs ~options ~library hg =
  let since = clock () in
  let jobs = max 1 options.jobs in
  (* Spare parallelism flows down to the per-split restarts only when the
     run level cannot use it, so the domain count stays ~[jobs]. *)
  let attempt_jobs =
    if options.runs < jobs then max 1 (jobs / max 1 options.runs) else 1
  in
  let trials =
    Parallel.Pool.run ~jobs options.runs
      (run_trial ~library ~options ~attempt_jobs ?device_limit ~obs hg)
  in
  (* Merging the private sinks in run order reproduces the sequential event
     stream exactly; the winner fold below applies the sequential
     first-best tie-break. Both are independent of [jobs]. *)
  Array.iter (fun (child, _) -> Obs.merge_into ~into:obs child) trials;
  let feasible = ref 0 in
  let best = ref None in
  Array.iter
    (fun (_, payload) ->
      match payload with
      | None -> ()
      | Some ((_, summary) as v) ->
          incr feasible;
          (* Rank by the objective's total (devices plus interconnect; the
             paper's net cost is 0.0, so this is bitwise the legacy device
             total), IOB utilization as the paper's tie-break. *)
          let key =
            ( Fpga.Objective.total_cost options.objective
                ~device_cost:summary.Fpga.Cost.total_cost
                ~cut_nets:summary.Fpga.Cost.total_iobs,
              summary.Fpga.Cost.avg_iob_utilization )
          in
          let better =
            match !best with Some (k, _) -> key < k | None -> true
          in
          if better then best := Some (key, v))
    trials;
  (* Pairwise refinement is applied once, to the winning run (it never
     worsens a partition, so the winner stays at least as good). *)
  let outcome =
    match !best with
    | Some (_, (parts, _)) when options.refine_rounds > 0 ->
        Ok (Pairwise.refine ~opts:options ~obs hg library parts)
    | Some (_, (parts, _)) -> Ok parts
    | None -> Error "no feasible k-way partition found in any run"
  in
  finish ~since ~should_stop:options.should_stop ~runs:options.runs
    ~feasible_runs:!feasible hg outcome
