open Kway_types
module F = Hypergraph.Flat

(* External nets that actually consume an IOB: a net flagged external but
   incident to no cell (a dead primary after mapping) never has to enter
   the device. Counting it would overstate every part's terminal usage —
   the telemetry property tests caught exactly that on generated circuits
   with unused primary inputs. *)
let count_external (g : F.t) =
  let acc = ref 0 in
  for n = 0 to g.F.num_nets - 1 do
    if g.F.net_external.(n) && g.F.net_off.(n + 1) > g.F.net_off.(n) then
      Stdlib.incr acc
  done;
  !acc

(* Every cell of [g], whole, in the original coordinates. *)
let whole_members (g : F.t) =
  List.init g.F.num_cells (fun c -> (g.F.origin_cell.(c), g.F.origin_mask.(c)))

(* The run's free list of retired F-M states. [acquire] builds a state
   in the arrays of a retired one when the list has one
   ([Partition_state.reuse]), else a fresh one. A run's first remainder
   is its largest graph, so the states sized at step 0 serve every later
   step. *)
let acquire pool hg ~init_on_b =
  match !pool with
  | [] -> Partition_state.create hg ~init_on_b
  | st :: rest ->
      pool := rest;
      Partition_state.reuse st hg ~init_on_b

let release pool st = pool := st :: !pool

(* One feasible split attempt: side A must fit the device window. Returns
   the best feasible state over [attempts] random restarts; the others go
   back to [pool].

   The restarts are independent given their initial assignment, so with
   [attempt_jobs > 1] they run on the pool. Determinism: each restart's
   sides are drawn from the run RNG into its state up front, on the
   calling domain, in restart order, so the stream consumed is identical
   however the restarts then execute; each restart records F-M telemetry
   into a forked sink, merged back in restart order; and the winner fold
   applies the sequential first-best tie-break. *)
let try_device ~opts ~budget ~attempt_jobs ~rng ~obs ~pool rest
    (dev : Fpga.Device.t) =
  let area = F.total_area rest in
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
        ~objective:opts.objective.Fpga.Objective.split_objective
        ~replication:opts.replication ~max_passes:budget.passes
        ~should_stop:opts.should_stop ~a:w ()
    in
    (* Aim near the top of the window: fuller devices mean fewer devices
       and lower total cost (objective 1). *)
    let target = max lo (hi * 9 / 10) in
    let p_a = float_of_int target /. float_of_int area in
    (* The closure holds [p_a] boxed once: passed to [Rng.chance] (a
       cross-module call) from a loop, the local float would box per
       cell. *)
    let draw _ = not (Netlist.Rng.chance rng p_a) in
    let states =
      Array.init budget.restarts (fun _ -> acquire pool rest ~init_on_b:draw)
    in
    let attempts =
      Parallel.Pool.run ~jobs:attempt_jobs budget.restarts (fun a ->
          (* The fork runs on the executing domain, so the worker id read
             here is the trace track the restart's spans belong to. *)
          let child = Obs.fork ~track:(Parallel.Pool.worker_id ()) obs in
          (child, Fm.run_staged ~obs:child cfg states.(a)))
    in
    let best = ref None in
    Array.iteri
      (fun a (child, score) ->
        Obs.merge_into ~into:obs child;
        let st = states.(a) in
        match (score, !best) with
        | (0, cut, neg_area), Some (k, _) when k <= (cut, neg_area) ->
            release pool st
        | (0, cut, neg_area), prev ->
            Option.iter (fun (_, loser) -> release pool loser) prev;
            best := Some ((cut, neg_area), st)
        | _ -> release pool st)
      attempts;
    Option.map snd !best
  end

(* One run of the driver over the flat graph [g]. Each step's remainder
   is carved out of the previous one ([Partition_state.carve]) into one
   of two run-owned buffers, alternately, so a step never carves into
   the buffer its own remainder lives in, and the buffers sized at step 0
   serve every later step. *)
let run_once ~library ~opts ~budget ~attempt_jobs ~rng ~obs g =
  let obj = opts.objective in
  let pool = ref [] in
  let buffers = [| F.buffer (); F.buffer () |] in
  let total = F.total_area g in
  let rec loop rest parts guard =
    if opts.should_stop () then Error cancelled
    else if guard > total + 8 then
      Error "k-way driver failed to terminate (internal)"
    else if F.num_cells rest = 0 then Ok (List.rev parts)
    else begin
      let area = F.total_area rest in
      let ext = count_external rest in
      let rest_demand = F.total_demand rest in
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
               ({ device = dev; members = whole_members rest; clbs = area;
                  iobs = ext; used = rest_demand }
               :: parts))
      | None -> (
          (* Split off one device: evaluate every candidate device and keep
             the split with the best local cost efficiency (price of the
             device actually used per CLB covered), ties by cut. *)
          let step = List.length parts in
          (* The budget's [device_limit] (the narrowed coarse solve only):
             stop evaluating candidate devices once that many feasible
             splits exist. The list is in cost-efficiency order, so the
             first feasible candidates are the ones the rate ranking below
             would almost always pick anyway; on a ~k-device decomposition
             this turns k × |library| F-M searches into ~k × limit. [None]
             evaluates every device. *)
          let candidates =
            Obs.span obs (Printf.sprintf "split%d" step) (fun () ->
                let enough acc =
                  match budget.device_limit with
                  | Some l -> List.length acc >= l
                  | None -> false
                in
                let consider =
                  (fun dev ->
                    let attempt =
                      Obs.span obs ("dev-" ^ dev.Fpga.Device.name) (fun () ->
                          try_device ~opts ~budget ~attempt_jobs ~rng ~obs ~pool
                            rest dev)
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
                           CLB covered. The paper's net price is 0.0, so the
                           sum is bitwise the legacy price-per-CLB. *)
                        let rate =
                          Fpga.Objective.total_cost obj
                            ~device_cost:dev.Fpga.Device.price
                            ~cut_nets:(Partition_state.cut st)
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
          | (_, (dev, st, clbs, iobs, used)) :: losers ->
              List.iter (fun (_, (_, st, _, _, _)) -> release pool st) losers;
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
                { device = dev; members = List.map (lift rest) members_a;
                  clbs; iobs; used }
              in
              let next = buffers.(guard land 1) in
              Partition_state.carve st Partition_state.B ~into:next;
              release pool st;
              loop next (part :: parts) (guard + 1))
    end
  in
  loop g [] 0

(* One multi-start run, self-contained: its own RNG derived from
   (seed, run index) and a private forked sink, so runs can execute on any
   domain in any order. The returned sink holds the run's whole telemetry,
   the ["kway.run"] summary event included. *)
let run_trial ~library ~options ~budget ~attempt_jobs ~obs hg g r =
  let child = Obs.fork ~pid:r ~track:(Parallel.Pool.worker_id ()) obs in
  let rng = Netlist.Rng.create (options.seed + (r * 7919)) in
  let outcome =
    Obs.span child (Printf.sprintf "run%d" r) (fun () ->
        run_once ~library ~opts:options ~budget ~attempt_jobs ~rng ~obs:child
          g)
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

let flat_partition ~budget ~obs ~options ~library hg =
  let since = clock () in
  (* The runs and the winner's refinement share one flat form of [hg],
     read-only. *)
  let g = F.of_hypergraph hg in
  let jobs = max 1 options.jobs in
  (* Spare parallelism flows down to the per-split restarts only when the
     run level cannot use it, so the domain count stays ~[jobs]. *)
  let attempt_jobs =
    if options.runs < jobs then max 1 (jobs / max 1 options.runs) else 1
  in
  let trials =
    Parallel.Pool.run ~jobs options.runs
      (run_trial ~library ~options ~budget ~attempt_jobs ~obs hg g)
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
             paper's net price is 0.0, so this is bitwise the legacy device
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
  (* One round of pairwise refinement, applied to the winning run (it
     never worsens a partition, so the winner stays at least as good). *)
  let outcome =
    match !best with
    | Some (_, (parts, _)) ->
        Ok
          (Pairwise.refine ~opts:options ~passes:budget.passes ~rounds:1 ~obs
             g library parts)
    | None -> Error "no feasible k-way partition found in any run"
  in
  finish ~since ~should_stop:options.should_stop ~runs:options.runs
    ~feasible_runs:!feasible hg outcome
