type part = {
  device : Fpga.Device.t;
  members : (int * Bitvec.t) list;
  clbs : int;
  iobs : int;
  used : int array;
}

type result = {
  parts : part list;
  summary : Fpga.Cost.summary;
  replicated_cells : int;
  total_cells : int;
  wall_secs : float;
  cpu_secs : float;
  runs : int;
  feasible_runs : int;
}

let never_stop () = false

type multilevel = {
  max_levels : int;
  coarsen_ratio : float;
  refine_passes : int;
}

type strategy = Flat | Multilevel of multilevel

type options = {
  runs : int;
  seed : int;
  replication : [ `None | `Functional of int ];
  max_passes : int;
  fm_attempts : int;
  refine_rounds : int;
  jobs : int;
  should_stop : unit -> bool;
  objective : Fpga.Objective.t;
  strategy : strategy;
}

(* The objective's F-M preferences are structural variants (lib/fpga sits
   below this library); map them onto the engine's own type. *)
let fm_obj_of : Fpga.Objective.fm_objective -> Fm.objective = function
  | `Cut -> Fm.Cut
  | `Terminals -> Fm.Terminals

(* Secondary-axis caps for the F-M penalty leg: none under the paper's
   scalar model, the device's per-axis maxima under vector feasibility. *)
let res_max_of (objective : Fpga.Objective.t) dev =
  match objective.Fpga.Objective.feasibility with
  | Fpga.Objective.Primary -> [||]
  | Fpga.Objective.Vector -> Fpga.Device.demand_caps dev

let cancelled = "cancelled"

module Options = struct
  type t = options

  let default_multilevel =
    { max_levels = 12; coarsen_ratio = 0.9; refine_passes = 2 }

  let default =
    {
      runs = 5;
      seed = 1;
      replication = `None;
      max_passes = 10;
      fm_attempts = 3;
      refine_rounds = 1;
      jobs = 1;
      should_stop = never_stop;
      objective = Fpga.Objective.paper;
      strategy = Flat;
    }

  let make ?(runs = default.runs) ?(seed = default.seed)
      ?(replication = default.replication) ?(max_passes = default.max_passes)
      ?(fm_attempts = default.fm_attempts)
      ?(refine_rounds = default.refine_rounds) ?(jobs = default.jobs)
      ?(should_stop = default.should_stop) ?(objective = default.objective)
      ?(strategy = default.strategy) () =
    (* Fail loudly at construction: a zero or negative budget otherwise
       surfaces far downstream as "no feasible partition" (runs = 0), an
       empty restart loop (fm_attempts = 0) or a pool that silently runs
       inline — all much harder to attribute than this. *)
    let positive what v =
      if v <= 0 then
        invalid_arg
          (Printf.sprintf "Kway.Options.make: %s must be positive (got %d)"
             what v)
    in
    positive "runs" runs;
    positive "max_passes" max_passes;
    positive "fm_attempts" fm_attempts;
    positive "jobs" jobs;
    if refine_rounds < 0 then
      invalid_arg
        (Printf.sprintf
           "Kway.Options.make: refine_rounds must be non-negative (got %d)"
           refine_rounds);
    (match strategy with
    | Flat -> ()
    | Multilevel m ->
        positive "max_levels" m.max_levels;
        positive "refine_passes" m.refine_passes;
        if not (m.coarsen_ratio > 0.0 && m.coarsen_ratio < 1.0) then
          invalid_arg
            (Printf.sprintf
               "Kway.Options.make: coarsen_ratio must be in (0, 1) (got %g)"
               m.coarsen_ratio));
    {
      runs;
      seed;
      replication;
      max_passes;
      fm_attempts;
      refine_rounds;
      jobs;
      should_stop;
      objective;
      strategy;
    }
end

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

(* Translate copies expressed in a sub-hypergraph's coordinates back to the
   original hypergraph. [orig_of.(c)] = (original cell, per-output index
   map). *)
let translate orig_of members =
  List.map
    (fun (c, m) ->
      let orig, out_map = orig_of.(c) in
      let om =
        Bitvec.fold (fun o acc -> Bitvec.add out_map.(o) acc) m Bitvec.empty
      in
      (orig, om))
    members

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
  let min_clbs = max 1 (Fpga.Device.min_clbs dev) in
  let max_clbs = min (Fpga.Device.max_clbs dev) (area - 1) in
  if max_clbs < min_clbs then None
  else begin
    let bounds =
      Fm.bounds
        ~res_max:(res_max_of opts.objective dev)
        ~min_clbs ~max_clbs ~max_terminals:dev.Fpga.Device.terminals ()
    in
    let cfg =
      Fm.device_config
        ~objective:(fm_obj_of opts.objective.Fpga.Objective.split_objective)
        ~replication:opts.replication ~max_passes:opts.max_passes
        ~should_stop:opts.should_stop ~bounds ()
    in
    (* Aim near the top of the window: fuller devices mean fewer devices
       and lower total cost (objective 1). *)
    let target = max bounds.Fm.min_clbs (bounds.Fm.max_clbs * 9 / 10) in
    let p_a = float_of_int target /. float_of_int area in
    let n = Hypergraph.num_cells rest in
    let inits = Array.init opts.fm_attempts (fun _ -> Array.make n false) in
    for a = 0 to opts.fm_attempts - 1 do
      let init = inits.(a) in
      for c = 0 to n - 1 do
        init.(c) <- Netlist.Rng.float rng 1.0 >= p_a
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
  (* Cheapest device accepting a whole subcircuit: the paper's scalar
     test verbatim under [Primary], per-axis windows under [Vector]. *)
  let smallest_for ?relax_low ~demand ~iobs () =
    match obj.Fpga.Objective.feasibility with
    | Fpga.Objective.Primary ->
        Fpga.Library.smallest_fitting ?relax_low library
          ~clbs:(Fpga.Resource.get demand Fpga.Resource.clb)
          ~iobs
    | Fpga.Objective.Vector ->
        Fpga.Library.smallest_fitting_demand ?relax_low library ~demand ~iobs
  in
  let num_orig = Hypergraph.num_cells hg in
  let identity =
    Array.init num_orig (fun c ->
        ( c,
          Array.init
            (Array.length (Hypergraph.cell hg c).Hypergraph.outputs)
            Fun.id ))
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
      match smallest_for ~relax_low:true ~demand:rest_demand ~iobs:ext () with
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
          let members =
            translate orig_of
              (List.init (Hypergraph.num_cells rest) (fun c ->
                   ( c,
                     Bitvec.full
                       (Array.length
                          (Hypergraph.cell rest c).Hypergraph.outputs) )))
          in
          Ok
            (List.rev
               ({ device = dev; members; clbs = area; iobs = ext;
                  used = rest_demand }
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
                        (* Right-size: the split was shaped for [dev], but a
                           cheaper device may accept the same subcircuit. *)
                        let dev =
                          match smallest_for ~demand:used ~iobs () with
                          | Some d
                            when obj.Fpga.Objective.device_cost d
                                 < obj.Fpga.Objective.device_cost dev ->
                              d
                          | _ -> dev
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
                { device = dev; members = translate orig_of members_a;
                  clbs; iobs; used }
              in
              let specs_b = Partition_state.side_copies st Partition_state.B in
              let rest', spec_arr = Hypergraph.induce_copies rest specs_b in
              let orig_of' =
                Array.map
                  (fun (old_c, mask) ->
                    let orig, out_map = orig_of.(old_c) in
                    let out_map' =
                      Array.of_list
                        (List.map (fun o -> out_map.(o)) (Bitvec.to_list mask))
                    in
                    (orig, out_map'))
                  spec_arr
              in
              loop rest' orig_of' (part :: parts) (guard + 1))
    end
  in
  loop hg identity [] 0


(* ------------------------------------------------------------------ *)
(* Pairwise refinement                                                *)
(* ------------------------------------------------------------------ *)

(* Re-bipartition the union of two finished parts under both device
   windows, optimising total terminal usage (eq. 2 restricted to the
   pair). Cells of other parts appear as external context, so their IOB
   counts cannot change. [active] (original-cell coordinates) restricts
   which cells may move — the warm-start path passes the edit's dirty set
   so refinement costs O(blast radius). Returns the improved pair or
   [None]. *)
let refine_pair ~opts ~obs ?active hg library (pi : part) (pj : part) =
  let masks_of p =
    let tbl = Hashtbl.create 64 in
    List.iter (fun (c, m) -> Hashtbl.replace tbl c m) p.members;
    tbl
  in
  let mi = masks_of pi and mj = masks_of pj in
  let union = Hashtbl.create 128 in
  let add tbl =
    Hashtbl.iter
      (fun c m ->
        Hashtbl.replace union c
          (Bitvec.union m (try Hashtbl.find union c with Not_found -> Bitvec.empty)))
      tbl
  in
  add mi;
  add mj;
  let specs =
    Hashtbl.fold (fun c m acc -> (c, m) :: acc) union []
    |> List.sort compare
  in
  let hu, spec_arr = Hypergraph.induce_copies hg specs in
  (* Initial assignment: part j's share of each cell sits on side B. *)
  let init k =
    let orig, um = spec_arr.(k) in
    let mask_j = try Hashtbl.find mj orig with Not_found -> Bitvec.empty in
    let bit = ref 0 and acc = ref Bitvec.empty in
    Bitvec.iter
      (fun o ->
        if Bitvec.mem o mask_j then acc := Bitvec.add !bit !acc;
        incr bit)
      um;
    !acc
  in
  let st = Partition_state.create_with_masks hu ~masks:init in
  let obj = opts.objective in
  let bounds (p : part) =
    Fm.bounds
      ~res_max:(res_max_of obj p.device)
      ~min_clbs:1
      ~max_clbs:(Fpga.Device.max_clbs p.device)
      ~max_terminals:p.device.Fpga.Device.terminals ()
  in
  let sub_active =
    Option.map (fun act k -> act (fst spec_arr.(k))) active
  in
  let cfg =
    Fm.two_device_config
      ~objective:(fm_obj_of obj.Fpga.Objective.refine_objective)
      ~replication:opts.replication ~max_passes:opts.max_passes
      ~should_stop:opts.should_stop ?active:sub_active ~bounds_a:(bounds pi)
      ~bounds_b:(bounds pj) ()
  in
  let s0 = cfg.Fm.score st in
  let s1 = Fm.run_staged ~obs cfg st in
  let pen, _, _ = s1 in
  if pen <> 0 || s1 >= s0 then None
  else begin
    let translate_side side =
      Partition_state.side_copies st side
      |> List.map (fun (k, m) ->
             let orig, um = spec_arr.(k) in
             let outs = Bitvec.to_list um in
             let om =
               Bitvec.fold
                 (fun pos acc -> Bitvec.add (List.nth outs pos) acc)
                 m Bitvec.empty
             in
             (orig, om))
    in
    let rebuild side (p : part) =
      let clbs = Partition_state.area st side in
      let iobs = Partition_state.terminals st side in
      let used = Partition_state.resources st side in
      (* Keep the device unless a cheaper one now accepts the side. *)
      let candidate =
        match obj.Fpga.Objective.feasibility with
        | Fpga.Objective.Primary ->
            Fpga.Library.smallest_fitting ~relax_low:true library ~clbs ~iobs
        | Fpga.Objective.Vector ->
            Fpga.Library.smallest_fitting_demand ~relax_low:true library
              ~demand:used ~iobs
      in
      let device =
        match candidate with
        | Some d
          when obj.Fpga.Objective.device_cost d
               < obj.Fpga.Objective.device_cost p.device ->
            d
        | _ -> p.device
      in
      { device; members = translate_side side; clbs; iobs; used }
    in
    let _, t0, _ = s0 and _, t1, _ = s1 in
    Some (rebuild Partition_state.A pi, rebuild Partition_state.B pj, t0, t1)
  end

(* Refinement driver: repeatedly sweep the part pairs that share nets,
   most-connected first. With [dirty], only nets touching a dirty cell
   count towards pair selection (pairs coupled solely through clean nets
   have nothing movable between them) and only dirty cells may move. *)
let refine ~opts ~obs ?dirty hg library parts =
  let parts = Array.of_list parts in
  let k = Array.length parts in
  if k < 2 then Array.to_list parts
  else begin
    (* Each [refine_pair] hauls every net touching the pair into an
       induced subgraph, so on net-heavy graphs (coarse multilevel
       clusters retain most of the original nets) the per-pair F-M gets
       a tighter pass budget. Paper-suite graphs sit far below the
       threshold and keep the caller's budget. *)
    let opts =
      if hg.Hypergraph.num_nets > 16384 then
        { opts with max_passes = min opts.max_passes 4 }
      else opts
    in
    let net_counts =
      match dirty with
      | None -> None
      | Some d ->
          let dn = Array.make hg.Hypergraph.num_nets false in
          Array.iteri
            (fun c is_dirty ->
              if is_dirty then
                Array.iter
                  (fun n -> dn.(n) <- true)
                  (Hypergraph.cell_nets (Hypergraph.cell hg c)))
            d;
          Some dn
    in
    let active = Option.map (fun d c -> d.(c)) dirty in
    for round = 1 to opts.refine_rounds do
      (* Shared-net counts per pair. *)
      let touch = Array.make hg.Hypergraph.num_nets [] in
      Array.iteri
        (fun j p ->
          List.iter
            (fun (c, m) ->
              Array.iter
                (fun n ->
                  if
                    match net_counts with
                    | None -> true
                    | Some dn -> dn.(n)
                  then
                    match touch.(n) with
                    | x :: _ when x = j -> ()
                    | l -> touch.(n) <- j :: l)
                (Hypergraph.connected_nets (Hypergraph.cell hg c) ~out_mask:m))
            p.members)
        parts;
      let shared = Hashtbl.create 32 in
      Array.iter
        (fun l ->
          let l = List.sort_uniq compare l in
          List.iteri
            (fun a i ->
              List.iteri
                (fun b j ->
                  if b > a then
                    Hashtbl.replace shared (i, j)
                      (1 + try Hashtbl.find shared (i, j) with Not_found -> 0))
                l)
            l)
        touch;
      (* Most-connected pairs first; cap the sweep so refinement stays a
         small fraction of the driver's own cost on many-part results.
         Each [refine_pair] hauls every net touching the pair into an
         induced subgraph, so on net-heavy graphs (coarse multilevel
         clusters carry most of the original nets) the sweep narrows to
         the k best-connected pairs — the sorted order ensures those
         carry most of the recoverable gain. Paper-suite graphs stay
         far below the net threshold and keep the wide sweep. *)
      let pairs =
        Hashtbl.fold (fun p n acc -> (n, p) :: acc) shared []
        |> List.sort (fun a b -> compare b a)
        |> List.map snd
        |> List.filteri (fun i _ -> i < 4 * k)
      in
      let improved = ref 0 in
      let shed = ref 0 in
      Obs.span obs (Printf.sprintf "refine%d" round) (fun () ->
          List.iter
            (fun (i, j) ->
              if opts.should_stop () then ()
              else
              match
                refine_pair ~opts ~obs ?active hg library parts.(i) parts.(j)
              with
              | Some (pi, pj, t_before, t_after) ->
                  parts.(i) <- pi;
                  parts.(j) <- pj;
                  incr improved;
                  shed := !shed + (t_before - t_after);
                  if Obs.enabled obs then begin
                    Obs.incr obs "kway.refine_improved";
                    Obs.event obs "kway.refine_pair"
                      [
                        ("round", Obs.Json.Int round);
                        ("i", Obs.Json.Int i);
                        ("j", Obs.Json.Int j);
                        ("improved", Obs.Json.Bool true);
                        ("terminals_before", Obs.Json.Int t_before);
                        ("terminals_after", Obs.Json.Int t_after);
                      ]
                  end
              | None ->
                  if Obs.enabled obs then
                    Obs.event obs "kway.refine_pair"
                      [
                        ("round", Obs.Json.Int round);
                        ("i", Obs.Json.Int i);
                        ("j", Obs.Json.Int j);
                        ("improved", Obs.Json.Bool false);
                      ])
            pairs);
      if Obs.enabled obs then
        Obs.event obs "kway.refine_round"
          [
            ("round", Obs.Json.Int round);
            ("pairs", Obs.Json.Int (List.length pairs));
            ("improved", Obs.Json.Int !improved);
            ("terminals_shed", Obs.Json.Int !shed);
          ]
    done;
    Array.to_list parts
  end

(* ------------------------------------------------------------------ *)
(* Greedy boundary k-way refinement                                   *)
(* ------------------------------------------------------------------ *)

(* Deterministic greedy passes moving whole cells to the neighbouring
   part that most reduces total terminal usage (eq. 2), under the fixed
   per-part device windows. The multilevel walk uses this at scale:
   [refine_pair] builds an induced subgraph and runs multi-pass F-M per
   part pair, which is superlinear in level size, while a greedy sweep
   costs O(pins) per pass — the only refinement shape that survives
   100k-cell levels. Only [dirty] cells (the projected boundary) are
   candidates; cells whose outputs are split across parts (replication
   inherited from a coarser level) never move. Devices are kept as-is:
   cell moves cannot make a part outgrow its device (the windows are
   checked per move), and cheapening is the flat driver's job. *)
let greedy_refine ~opts ~obs ~dirty ~rounds hg parts =
  let parts = Array.of_list parts in
  let k = Array.length parts in
  if k < 2 then Array.to_list parts
  else begin
    let n = Hypergraph.num_cells hg in
    let nn = hg.Hypergraph.num_nets in
    let full_of c =
      Bitvec.full (Array.length (Hypergraph.cell hg c).Hypergraph.outputs)
    in
    (* cell -> owning part; -2 marks split outputs (immovable). *)
    let owner = Array.make n (-1) in
    Array.iteri
      (fun j p ->
        List.iter
          (fun (c, m) ->
            if Bitvec.equal m (full_of c) && owner.(c) = -1 then
              owner.(c) <- j
            else owner.(c) <- -2)
          p.members)
      parts;
    (* Per-part pin counts on every net, flattened [j * nn + net]. *)
    let cnt = Array.make (k * nn) 0 in
    Array.iteri
      (fun j p ->
        List.iter
          (fun (c, m) ->
            let cell = Hypergraph.cell hg c in
            let nets =
              if owner.(c) >= 0 then Hypergraph.cell_nets cell
              else Hypergraph.connected_nets cell ~out_mask:m
            in
            Array.iter
              (fun nt -> cnt.((j * nn) + nt) <- cnt.((j * nn) + nt) + 1)
              nets)
          p.members)
      parts;
    let touchers = Array.make nn 0 in
    for nt = 0 to nn - 1 do
      for j = 0 to k - 1 do
        if cnt.((j * nn) + nt) > 0 then touchers.(nt) <- touchers.(nt) + 1
      done
    done;
    let ext = hg.Hypergraph.net_external in
    (* Live terminal counts per part (kept in sync with every move). *)
    let terms = Array.make k 0 in
    for j = 0 to k - 1 do
      for nt = 0 to nn - 1 do
        if cnt.((j * nn) + nt) > 0 && (ext.(nt) || touchers.(nt) >= 2) then
          terms.(j) <- terms.(j) + 1
      done
    done;
    let clbs = Array.map (fun p -> p.clbs) parts in
    let used = Array.map (fun p -> Array.copy p.used) parts in
    let max_clbs = Array.map (fun p -> Fpga.Device.max_clbs p.device) parts in
    let res_max =
      Array.map (fun p -> res_max_of opts.objective p.device) parts
    in
    let max_terms =
      Array.map (fun p -> p.device.Fpga.Device.terminals) parts
    in
    (* Terminal delta for parts [i] (source) and [j] (target) when the
       full cell [c] moves. Every other part keeps its pins and at
       least as many co-touchers on each affected net, so only these
       two change. *)
    let deltas nets i j =
      let di = ref 0 and dj = ref 0 in
      Array.iter
        (fun nt ->
          let ci = cnt.((i * nn) + nt) and cj = cnt.((j * nn) + nt) in
          let tc = touchers.(nt) in
          let tc' =
            tc - (if ci = 1 then 1 else 0) + (if cj = 0 then 1 else 0)
          in
          let outside tc = ext.(nt) || tc >= 2 in
          if outside tc then Stdlib.decr di;
          if ci > 1 && outside tc' then Stdlib.incr di;
          if cj > 0 && outside tc then Stdlib.decr dj;
          if outside tc' then Stdlib.incr dj)
        nets;
      (!di, !dj)
    in
    let adjacent = Array.make k false in
    for round = 1 to rounds do
      let moved = ref 0 in
      let shed = ref 0 in
      Obs.span obs (Printf.sprintf "greedy%d" round) (fun () ->
          for c = 0 to n - 1 do
            let i = owner.(c) in
            if dirty.(c) && i >= 0 && not (opts.should_stop ()) then begin
              let cell = Hypergraph.cell hg c in
              let nets = Hypergraph.cell_nets cell in
              let cands = ref [] in
              Array.iter
                (fun nt ->
                  for j = 0 to k - 1 do
                    if (not adjacent.(j)) && cnt.((j * nn) + nt) > 0 then begin
                      adjacent.(j) <- true;
                      if j <> i then cands := j :: !cands
                    end
                  done)
                nets;
              Array.fill adjacent 0 k false;
              let a = cell.Hypergraph.area in
              let d = cell.Hypergraph.demand in
              let best = ref None in
              List.iter
                (fun j ->
                  let di, dj = deltas nets i j in
                  let fits =
                    clbs.(j) + a <= max_clbs.(j)
                    && clbs.(i) - a >= 1
                    && terms.(j) + dj <= max_terms.(j)
                    && terms.(i) + di <= max_terms.(i)
                    && (let caps = res_max.(j) in
                        let ok = ref true in
                        for ax = 0 to Array.length caps - 1 do
                          let dem = if ax < Array.length d then d.(ax) else 0 in
                          if used.(j).(ax) + dem > caps.(ax) then ok := false
                        done;
                        !ok)
                  in
                  if fits && di + dj < 0 then
                    match !best with
                    | Some (_, _, bsum) when bsum <= di + dj -> ()
                    | _ -> best := Some (j, (di, dj), di + dj))
                (List.rev !cands)
              ;
              match !best with
              | None -> ()
              | Some (j, (di, dj), sum) ->
                  owner.(c) <- j;
                  clbs.(i) <- clbs.(i) - a;
                  clbs.(j) <- clbs.(j) + a;
                  for ax = 0 to Array.length d - 1 do
                    used.(i).(ax) <- used.(i).(ax) - d.(ax);
                    used.(j).(ax) <- used.(j).(ax) + d.(ax)
                  done;
                  terms.(i) <- terms.(i) + di;
                  terms.(j) <- terms.(j) + dj;
                  Array.iter
                    (fun nt ->
                      let ii = (i * nn) + nt and jj = (j * nn) + nt in
                      cnt.(ii) <- cnt.(ii) - 1;
                      if cnt.(ii) = 0 then touchers.(nt) <- touchers.(nt) - 1;
                      if cnt.(jj) = 0 then touchers.(nt) <- touchers.(nt) + 1;
                      cnt.(jj) <- cnt.(jj) + 1)
                    nets;
                  Stdlib.incr moved;
                  shed := !shed - sum
            end
          done);
      if Obs.enabled obs then begin
        Obs.incr obs ~by:!moved "kway.greedy_moves";
        Obs.event obs "kway.greedy_round"
          [
            ("round", Obs.Json.Int round);
            ("moved", Obs.Json.Int !moved);
            ("terminals_shed", Obs.Json.Int !shed);
          ]
      end
    done;
    (* Split-output masks stay with their original parts. *)
    let split = Hashtbl.create 16 in
    Array.iteri
      (fun j p ->
        List.iter
          (fun (c, m) -> if owner.(c) = -2 then Hashtbl.replace split (j, c) m)
          p.members)
      parts;
    Array.to_list
      (Array.mapi
         (fun j p ->
           let members = ref [] in
           for c = n - 1 downto 0 do
             if owner.(c) = j then members := (c, full_of c) :: !members
             else if owner.(c) = -2 then
               match Hashtbl.find_opt split (j, c) with
               | Some m -> members := (c, m) :: !members
               | None -> ()
           done;
           {
             p with
             members = !members;
             clbs = clbs.(j);
             iobs = terms.(j);
             used = used.(j);
           })
         parts)
  end

let summarize_parts hg parts =
  let placements =
    List.map
      (fun p -> Fpga.Cost.place p.device ~used:p.used ~clbs:p.clbs ~iobs:p.iobs ())
      parts
  in
  let summary = Fpga.Cost.summarize placements in
  let appearances = Hashtbl.create 64 in
  List.iter
    (fun p ->
      List.iter
        (fun (c, _) ->
          Hashtbl.replace appearances c
            (1 + try Hashtbl.find appearances c with Not_found -> 0))
        p.members)
    parts;
  let replicated =
    Hashtbl.fold (fun _ n acc -> if n > 1 then acc + 1 else acc) appearances 0
  in
  (summary, replicated, Hypergraph.num_cells hg)

(* Package externally produced parts as a result (for [check]ing a
   partition built by hand, e.g. a projected labelling in the property
   tests). The clocks and run counters describe no search, so they are
   zero/one. *)
let result_of_parts hg parts =
  let summary, replicated, total = summarize_parts hg parts in
  {
    parts;
    summary;
    replicated_cells = replicated;
    total_cells = total;
    wall_secs = 0.0;
    cpu_secs = 0.0;
    runs = 1;
    feasible_runs = 1;
  }

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
      let summary, replicated, total = summarize_parts hg parts in
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
      (child, Some (parts, summary, replicated, total))

let flat_partition ?device_limit ~obs ~options ~library hg =
  let w0 = Obs.Clock.wall () in
  let t0 = Obs.Clock.cpu () in
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
      | Some ((_, summary, _, _) as v) ->
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
  let best =
    match !best with
    | Some (_, (parts, _, _, _)) when options.refine_rounds > 0 ->
        let parts = refine ~opts:options ~obs hg library parts in
        let summary, replicated, total = summarize_parts hg parts in
        Some (parts, summary, replicated, total)
    | Some (_, v) -> Some v
    | None -> None
  in
  let wall_secs = Obs.Clock.wall () -. w0 in
  let cpu_secs = Obs.Clock.cpu () -. t0 in
  if options.should_stop () then Error cancelled
  else
  match best with
  | None -> Error "no feasible k-way partition found in any run"
  | Some (parts, summary, replicated, total) ->
      Ok
        {
          parts;
          summary;
          replicated_cells = replicated;
          total_cells = total;
          wall_secs;
          cpu_secs;
          runs = options.runs;
          feasible_runs = !feasible;
        }

(* ------------------------------------------------------------------ *)
(* Warm start (incremental repartitioning)                            *)
(* ------------------------------------------------------------------ *)

(* Flatten a finished partition to one label per cell, for projection
   onto an edited hypergraph. A replicated cell appears in several parts;
   its label is the part driving the most outputs (first such part at
   ties), and the cell is flagged so the caller can mark it dirty — the
   warm start then re-decides its replication instead of trusting a
   single inherited label. *)
let labels_of_parts hg parts =
  let n = Hypergraph.num_cells hg in
  let labels = Array.make n (-1) in
  let best_norm = Array.make n (-1) in
  let appearances = Array.make n 0 in
  List.iteri
    (fun j p ->
      List.iter
        (fun (c, m) ->
          appearances.(c) <- appearances.(c) + 1;
          let norm = Bitvec.norm m in
          if norm > best_norm.(c) then begin
            best_norm.(c) <- norm;
            labels.(c) <- j
          end)
        p.members)
    parts;
  (labels, Array.map (fun k -> k > 1) appearances)

type warm = {
  w_labels : int array;
  w_dirty : bool array;
  w_devices : Fpga.Device.t array;
}

let warm_start ?(obs = Obs.noop) ?(options = Options.default) ~library ~warm hg
    =
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let w0 = Obs.Clock.wall () in
  let t0 = Obs.Clock.cpu () in
  let n = Hypergraph.num_cells hg in
  let k = Array.length warm.w_devices in
  if Array.length warm.w_labels <> n then
    err "Kway.warm_start: labels cover %d cells, hypergraph has %d"
      (Array.length warm.w_labels) n
  else if Array.length warm.w_dirty <> n then
    err "Kway.warm_start: dirty flags cover %d cells, hypergraph has %d"
      (Array.length warm.w_dirty) n
  else if k = 0 then err "Kway.warm_start: empty device array"
  else if Array.exists (fun l -> l >= k) warm.w_labels then
    err "Kway.warm_start: label out of range (only %d devices)" k
  else begin
    let labels = Array.copy warm.w_labels in
    let dirty = Array.copy warm.w_dirty in
    (* Part presence per net and per-part areas, maintained as cells are
       placed. Presence lists are kept duplicate-free ([k] is tiny). *)
    let parts_on_net = Array.make hg.Hypergraph.num_nets [] in
    let clbs = Array.make k 0 in
    let used = Array.make_matrix k Hypergraph.demand_arity 0 in
    let note_cell c p =
      let cell = Hypergraph.cell hg c in
      clbs.(p) <- clbs.(p) + cell.Hypergraph.area;
      let d = cell.Hypergraph.demand in
      for a = 0 to Array.length d - 1 do
        used.(p).(a) <- used.(p).(a) + d.(a)
      done;
      Array.iter
        (fun nt ->
          if not (List.mem p parts_on_net.(nt)) then
            parts_on_net.(nt) <- p :: parts_on_net.(nt))
        (Hypergraph.cell_nets cell)
    in
    for c = 0 to n - 1 do
      if labels.(c) >= 0 then note_cell c labels.(c)
    done;
    (* Seed cells with no inherited label (new cells of the edit) where
       their connectivity pulls them: most incident nets already present,
       ties broken towards parts with capacity headroom, then towards the
       emptier part. Greedy in ascending id — deterministic, and the
       dirty-restricted refinement below cleans up any misplacement. *)
    let seeded = ref 0 in
    for c = 0 to n - 1 do
      if labels.(c) < 0 then begin
        let affinity = Array.make k 0 in
        Array.iter
          (fun nt ->
            List.iter
              (fun p -> affinity.(p) <- affinity.(p) + 1)
              parts_on_net.(nt))
          (Hypergraph.cell_nets (Hypergraph.cell hg c));
        let area = (Hypergraph.cell hg c).Hypergraph.area in
        let best = ref 0 in
        let best_key = ref (min_int, min_int, min_int) in
        for p = 0 to k - 1 do
          let fits =
            if clbs.(p) + area <= Fpga.Device.max_clbs warm.w_devices.(p) then 1
            else 0
          in
          let key = (affinity.(p), fits, -clbs.(p)) in
          if key > !best_key then begin
            best_key := key;
            best := p
          end
        done;
        labels.(c) <- !best;
        dirty.(c) <- true;
        note_cell c !best;
        incr seeded
      end
    done;
    (* Materialise parts. The warm start carries no replication: every
       cell sits whole in its labelled part (a replicated base cell was
       collapsed by labels_of_parts and marked dirty, so refinement may
       reintroduce copies where they pay). *)
    let members = Array.make k [] in
    for c = n - 1 downto 0 do
      let full =
        Bitvec.full (Array.length (Hypergraph.cell hg c).Hypergraph.outputs)
      in
      members.(labels.(c)) <- (c, full) :: members.(labels.(c))
    done;
    let iobs = Array.make k 0 in
    Array.iteri
      (fun nt touchers ->
        List.iter
          (fun j ->
            let outside =
              hg.Hypergraph.net_external.(nt)
              || List.exists (fun q -> q <> j) touchers
            in
            if outside then iobs.(j) <- iobs.(j) + 1)
          touchers)
      parts_on_net;
    let rec build p acc =
      if p < 0 then Ok acc
      else if members.(p) = [] then build (p - 1) acc
      else
        let cl = clbs.(p) and io = iobs.(p) in
        let dev =
          match options.objective.Fpga.Objective.feasibility with
          | Fpga.Objective.Primary ->
              if
                Fpga.Device.fits ~relax_low:true warm.w_devices.(p) ~clbs:cl
                  ~iobs:io
              then Some warm.w_devices.(p)
              else
                Fpga.Library.smallest_fitting ~relax_low:true library ~clbs:cl
                  ~iobs:io
          | Fpga.Objective.Vector ->
              if
                Fpga.Device.fits_demand ~relax_low:true warm.w_devices.(p)
                  ~demand:used.(p) ~iobs:io
              then Some warm.w_devices.(p)
              else
                Fpga.Library.smallest_fitting_demand ~relax_low:true library
                  ~demand:used.(p) ~iobs:io
        in
        match dev with
        | None ->
            err "warm start: no device accepts part %d (%d CLBs / %d IOBs)" p
              cl io
        | Some device ->
            build (p - 1)
              ({ device; members = members.(p); clbs = cl; iobs = io;
                 used = used.(p) }
              :: acc)
    in
    match build (k - 1) [] with
    | Error _ as e -> e
    | Ok parts ->
        let dirty_cells =
          Array.fold_left (fun a d -> if d then a + 1 else a) 0 dirty
        in
        (* Refine only inside the edit's blast radius: at least one round
           even when the options say zero, since refinement is the entire
           optimisation a warm start performs. *)
        let opts =
          { options with refine_rounds = max 1 options.refine_rounds }
        in
        let parts =
          Obs.span obs "warm" (fun () ->
              refine ~opts ~obs ~dirty hg library parts)
        in
        let summary, replicated, total = summarize_parts hg parts in
        if Obs.enabled obs then begin
          Obs.incr obs "kway.warm_starts";
          Obs.observe obs "kway.warm_seeded_cells" !seeded;
          Obs.observe obs "kway.warm_dirty_cells" dirty_cells;
          Obs.event obs "kway.warm"
            [
              ("seeded", Obs.Json.Int !seeded);
              ("dirty", Obs.Json.Int dirty_cells);
              ("parts", Obs.Json.Int summary.Fpga.Cost.num_partitions);
              ("total_cost", Obs.Json.Float summary.Fpga.Cost.total_cost);
              ("total_iobs", Obs.Json.Int summary.Fpga.Cost.total_iobs);
            ]
        end;
        let wall_secs = Obs.Clock.wall () -. w0 in
        let cpu_secs = Obs.Clock.cpu () -. t0 in
        if options.should_stop () then Error cancelled
        else
          Ok
            {
              parts;
              summary;
              replicated_cells = replicated;
              total_cells = total;
              wall_secs;
              cpu_secs;
              runs = 1;
              feasible_runs = 1;
            }
  end

(* ------------------------------------------------------------------ *)
(* Multilevel V-cycle                                                 *)
(* ------------------------------------------------------------------ *)

(* Materialise a whole-cell labelling into parts — the uncoarsening step
   of the V-cycle, also exported for the projection property tests. The
   accounting mirrors [warm_start]'s: per-part CLB/demand sums, IOBs
   recounted from net touchers, devices kept unless the part outgrew them
   (then the cheapest accepting device, lower window relaxed). Labels
   carry no replication: every cell sits whole in its labelled part. *)
let project_parts ?(options = Options.default) ~library ~labels
    ~(devices : Fpga.Device.t array) hg =
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let n = Hypergraph.num_cells hg in
  let k = Array.length devices in
  if Array.length labels <> n then
    err "Kway.project_parts: labels cover %d cells, hypergraph has %d"
      (Array.length labels) n
  else if k = 0 then err "Kway.project_parts: empty device array"
  else if Array.exists (fun l -> l < 0 || l >= k) labels then
    err "Kway.project_parts: label out of range (only %d devices)" k
  else begin
    let parts_on_net = Array.make hg.Hypergraph.num_nets [] in
    let clbs = Array.make k 0 in
    let used = Array.make_matrix k Hypergraph.demand_arity 0 in
    for c = 0 to n - 1 do
      let cell = Hypergraph.cell hg c in
      let p = labels.(c) in
      clbs.(p) <- clbs.(p) + cell.Hypergraph.area;
      let d = cell.Hypergraph.demand in
      for a = 0 to Array.length d - 1 do
        used.(p).(a) <- used.(p).(a) + d.(a)
      done;
      Array.iter
        (fun nt ->
          match parts_on_net.(nt) with
          | q :: _ when q = p -> ()
          | l -> if not (List.mem p l) then parts_on_net.(nt) <- p :: l)
        (Hypergraph.cell_nets cell)
    done;
    let members = Array.make k [] in
    for c = n - 1 downto 0 do
      let full =
        Bitvec.full (Array.length (Hypergraph.cell hg c).Hypergraph.outputs)
      in
      members.(labels.(c)) <- (c, full) :: members.(labels.(c))
    done;
    let iobs = Array.make k 0 in
    Array.iteri
      (fun nt touchers ->
        List.iter
          (fun j ->
            let outside =
              hg.Hypergraph.net_external.(nt)
              || List.exists (fun q -> q <> j) touchers
            in
            if outside then iobs.(j) <- iobs.(j) + 1)
          touchers)
      parts_on_net;
    let rec build p acc =
      if p < 0 then Ok acc
      else if members.(p) = [] then build (p - 1) acc
      else
        let cl = clbs.(p) and io = iobs.(p) in
        let dev =
          match options.objective.Fpga.Objective.feasibility with
          | Fpga.Objective.Primary ->
              if Fpga.Device.fits ~relax_low:true devices.(p) ~clbs:cl ~iobs:io
              then Some devices.(p)
              else
                Fpga.Library.smallest_fitting ~relax_low:true library ~clbs:cl
                  ~iobs:io
          | Fpga.Objective.Vector ->
              if
                Fpga.Device.fits_demand ~relax_low:true devices.(p)
                  ~demand:used.(p) ~iobs:io
              then Some devices.(p)
              else
                Fpga.Library.smallest_fitting_demand ~relax_low:true library
                  ~demand:used.(p) ~iobs:io
        in
        match dev with
        | None ->
            err "Kway.project_parts: no device accepts part %d (%d CLBs / %d \
                 IOBs)"
              p cl io
        | Some device ->
            build (p - 1)
              ({ device; members = members.(p); clbs = cl; iobs = io;
                 used = used.(p) }
              :: acc)
    in
    build (k - 1) []
  end

(* Per-axis cluster weight caps for the coarsening: a fraction of the
   {e smallest} per-axis device window in the library, so even a part on
   the cheapest device is assembled from several clusters and the coarse
   F-M retains packing freedom — capping by the largest window lets one
   cluster swallow half an XC3090, which no XC3030-sized part can then
   accept, and the IOB windows become unreachable at that granularity.
   Under the paper's scalar feasibility only the CLB axis binds
   (secondary axes are never checked there, and capping them would refuse
   merges the model cannot reject); under vector feasibility every demand
   axis is capped so coarse clusters stay placeable. *)
let cluster_caps library (objective : Fpga.Objective.t) =
  let devices = Fpga.Library.devices library in
  let arity = Hypergraph.demand_arity in
  let caps = Array.make arity max_int in
  (* Devices without a resource (axis cap 0) don't constrain that axis:
     parts needing it simply never land there. *)
  let min_positive_axis f =
    List.fold_left
      (fun acc d ->
        let v = f d in
        if v > 0 then min acc v else acc)
      max_int devices
  in
  let cap_of v = if v = max_int then max_int else max 1 (v / 4) in
  caps.(0) <- cap_of (min_positive_axis Fpga.Device.max_clbs);
  (match objective.Fpga.Objective.feasibility with
  | Fpga.Objective.Primary -> ()
  | Fpga.Objective.Vector ->
      for a = 1 to arity - 1 do
        caps.(a) <-
          cap_of
            (min_positive_axis (fun d ->
                 let dc = Fpga.Device.demand_caps d in
                 if a < Array.length dc then dc.(a) else 0))
      done);
  caps

(* The V-cycle: coarsen under the weight caps, run the flat
   heterogeneous-device k-way on the coarsest graph, then project the
   labelling down level by level, refining each level with F-M restricted
   to the boundary cells (the warm-start [active] machinery). Functional
   replication only participates at the finest levels: coarse clusters
   are opaque (every output depends on every input), so replication above
   them has no adjacency slack to exploit — the RePart argument. *)
let repl_fine_levels = 2

(* Above this many cells in the finest graph, the V-cycle refines with
   the greedy boundary mover instead of pairwise F-M: the pairwise
   sweep costs an induced-subgraph F-M per part pair per level and
   stops being affordable somewhere past a few thousand cells. Every
   paper-suite circuit maps below the cap, so their refinement — and
   results — are untouched. *)
let pairwise_refine_cap = 4096

let multilevel_run ~obs ~(options : options) ~ml ~library hg =
  let w0 = Obs.Clock.wall () in
  let t0 = Obs.Clock.cpu () in
  let total = Hypergraph.total_area hg in
  let devices = Fpga.Library.devices library in
  let fold_windows op init =
    List.fold_left (fun acc d -> op acc (max 1 (Fpga.Device.max_clbs d))) init
      devices
  in
  let largest = fold_windows max 1 in
  let smallest = fold_windows min max_int in
  (* Lower bound on the part count (everything on the largest device):
     drives the budget switch below. *)
  let k_est = max 1 ((total + largest - 1) / largest) in
  (* Upper bound (everything on the smallest device): drives the coarsest
     size, because the driver may well choose many small devices (they are
     often the cost-efficient pick under tight IOB windows) and the coarse
     F-M needs ~8 movable clusters per part to hit device windows. *)
  let k_upper = max 1 ((total + smallest - 1) / smallest) in
  let coarsest_target = max 150 (8 * k_upper) in
  (* Net-surface cap: the library's smallest terminal budget bounds how
     much net surface a cluster may accumulate before coarse F-M strands
     outside every device's terminal window — a part assembled from
     clusters cannot cut fewer nets than its clusters' surfaces allow, so
     quality falls off a cliff (2-4x device cost) once surfaces pass
     roughly a tenth of the budget. The divisor is calibrated on the MCNC
     suite against the flat driver: /9 keeps every circuit within 5% of
     flat cost (most below it); /6 already tips s38584 over the cliff.
     Generous terminal budgets (modern multi-thousand-pin parts) leave the
     cap slack, letting coarsening run deep — which is exactly when deep
     coarsening is safe. *)
  let smallest_terminals =
    List.fold_left
      (fun acc (d : Fpga.Device.t) -> min acc d.Fpga.Device.terminals)
      max_int devices
  in
  let max_nets = max 4 (smallest_terminals / 9) in
  let rng = Netlist.Rng.create options.seed in
  let hier =
    Coarsen.hierarchy ~coarsest:coarsest_target ~max_levels:ml.max_levels
      ~stall_ratio:ml.coarsen_ratio
      ~max_weight:(cluster_caps library options.objective)
      ~max_nets
      ~wrap:(fun d f -> Obs.span obs (Printf.sprintf "coarsen%d" d) f)
      ~rng hg
  in
  if Obs.enabled obs then begin
    let rec emit depth = function
      | [] -> ()
      | (fine, _) :: rest ->
          let coarse =
            match rest with (nf, _) :: _ -> nf | [] -> hier.Coarsen.coarsest
          in
          let fc = Hypergraph.num_cells fine in
          let cc = Hypergraph.num_cells coarse in
          Obs.incr obs "ml.level";
          Obs.observe obs "ml.cells_per_level" fc;
          (* Percentage: the histogram buckets are integer-valued. *)
          Obs.observe obs "ml.coarsen_ratio" (100 * cc / max 1 fc);
          Obs.event obs "ml.coarsen"
            [
              ("level", Obs.Json.Int depth);
              ("fine_cells", Obs.Json.Int fc);
              ("coarse_cells", Obs.Json.Int cc);
            ];
          emit (depth + 1) rest
    in
    emit 0 (List.rev hier.Coarsen.levels);
    Obs.observe obs "ml.cells_per_level"
      (Hypergraph.num_cells hier.Coarsen.coarsest)
  end;
  if hier.Coarsen.levels = [] then
    (* Already at coarse scale: the V-cycle adds nothing, run flat. *)
    flat_partition ~obs ~options ~library hg
  else begin
    (* Coarse-stage budgets. At small k over a well-contracted graph the
       caller's budgets apply unchanged; when the decomposition is wide
       (large k) or coarsening stalled far from its target (many coarse
       cells per eventual part — dense graphs pin-bound by the cluster
       mask width), the split loop is O(k · n_coarse) per device per
       restart per run, so the search narrows (one run, one restart, two
       candidate devices per split, capped passes) and quality is
       recovered by the per-level refinement below. The switch depends
       only on the device library and the graph — deterministic. The 512
       threshold clears the paper-suite circuits by ~2x (their coarse
       graphs stay under ~260 cells per part), so their budgets — and
       results — are untouched. *)
    let cells_per_part =
      Hypergraph.num_cells hier.Coarsen.coarsest / max 1 k_est
    in
    let coarse_options, device_limit =
      if k_est <= 16 && cells_per_part <= 512 then
        ({ options with strategy = Flat; replication = `None }, None)
      else
        ( {
            options with
            strategy = Flat;
            replication = `None;
            runs = 1;
            fm_attempts = 1;
            max_passes = min options.max_passes 6;
            refine_rounds = min options.refine_rounds 1;
          },
          Some 2 )
    in
    match
      flat_partition ?device_limit ~obs ~options:coarse_options ~library
        hier.Coarsen.coarsest
    with
    | Error _ as e -> e
    | Ok coarse_res ->
        let nlev = List.length hier.Coarsen.levels in
        let rec walk idx cur_h cur_parts = function
          | [] -> Ok cur_parts
          | (fine, map) :: rest ->
              if options.should_stop () then Error cancelled
              else begin
                let coarse_labels, coarse_repl =
                  labels_of_parts cur_h cur_parts
                in
                let labels = Coarsen.project_labels ~map coarse_labels in
                let devices =
                  Array.of_list (List.map (fun p -> p.device) cur_parts)
                in
                match project_parts ~options ~library ~labels ~devices fine with
                | Error _ as e -> e
                | Ok parts ->
                    let dirty = Hypergraph.boundary fine ~labels in
                    (* A cluster replicated at the coarser level was
                       collapsed to its dominant part by labels_of_parts;
                       mark its cells dirty so refinement re-decides the
                       replication at this level's adjacency. *)
                    if Array.exists Fun.id coarse_repl then
                      Array.iteri
                        (fun c cl -> if coarse_repl.(cl) then dirty.(c) <- true)
                        map;
                    let level_repl =
                      if idx >= nlev - repl_fine_levels then options.replication
                      else `None
                    in
                    let opts =
                      {
                        options with
                        replication = level_repl;
                        refine_rounds = ml.refine_passes;
                      }
                    in
                    let parts =
                      Obs.span obs (Printf.sprintf "refine%d" idx) (fun () ->
                          if Hypergraph.num_cells hg <= pairwise_refine_cap
                          then refine ~opts ~obs ~dirty fine library parts
                          else
                            greedy_refine ~opts ~obs ~dirty
                              ~rounds:ml.refine_passes fine parts)
                    in
                    if Obs.enabled obs then
                      Obs.event obs "ml.refine"
                        [
                          ("level", Obs.Json.Int idx);
                          ("cells", Obs.Json.Int (Hypergraph.num_cells fine));
                          ( "dirty",
                            Obs.Json.Int
                              (Array.fold_left
                                 (fun a d -> if d then a + 1 else a)
                                 0 dirty) );
                          ("parts", Obs.Json.Int (List.length parts));
                        ];
                    walk (idx + 1) fine parts rest
              end
        in
        (match walk 0 hier.Coarsen.coarsest coarse_res.parts hier.Coarsen.levels with
        | Error _ as e -> e
        | Ok parts ->
            let summary, replicated, total_cells = summarize_parts hg parts in
            let wall_secs = Obs.Clock.wall () -. w0 in
            let cpu_secs = Obs.Clock.cpu () -. t0 in
            if options.should_stop () then Error cancelled
            else begin
              Ok
                {
                  parts;
                  summary;
                  replicated_cells = replicated;
                  total_cells;
                  wall_secs;
                  cpu_secs;
                  runs = coarse_options.runs;
                  feasible_runs = coarse_res.feasible_runs;
                }
            end)
  end

let partition ?(obs = Obs.noop) ?(options = Options.default) ~library hg =
  match options.strategy with
  | Flat -> flat_partition ~obs ~options ~library hg
  | Multilevel ml -> multilevel_run ~obs ~options ~ml ~library hg

let check hg result =
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let num = Hypergraph.num_cells hg in
  (* 1. Output masks partition every cell's outputs. *)
  let seen = Array.make num Bitvec.empty in
  let overlap = ref None in
  List.iter
    (fun p ->
      List.iter
        (fun (c, m) ->
          if not (Bitvec.is_empty (Bitvec.inter seen.(c) m)) then
            overlap := Some c;
          seen.(c) <- Bitvec.union seen.(c) m)
        p.members)
    result.parts;
  match !overlap with
  | Some c -> err "cell %d: an output is driven by two parts" c
  | None -> (
      let missing = ref None in
      for c = 0 to num - 1 do
        let full =
          Bitvec.full (Array.length (Hypergraph.cell hg c).Hypergraph.outputs)
        in
        if not (Bitvec.equal seen.(c) full) then missing := Some c
      done;
      match !missing with
      | Some c -> err "cell %d: some output is driven by no part" c
      | None -> (
          (* 2. Per-part areas and terminal counts match the members, and
             fit the device. Terminals recomputed from the original
             hypergraph: a net consumes an IOB of a part iff the part
             touches it and it also lives outside the part. *)
          let net_touchers = Array.make hg.Hypergraph.num_nets [] in
          List.iteri
            (fun j p ->
              List.iter
                (fun (c, m) ->
                  Array.iter
                    (fun n ->
                      match net_touchers.(n) with
                      | k :: _ when k = j -> ()
                      | l -> net_touchers.(n) <- j :: l)
                    (Hypergraph.connected_nets (Hypergraph.cell hg c)
                       ~out_mask:m))
                p.members)
            result.parts;
          let rec check_parts j = function
            | [] -> Ok ()
            | p :: rest ->
                let clbs =
                  List.fold_left
                    (fun acc (c, _) -> acc + (Hypergraph.cell hg c).Hypergraph.area)
                    0 p.members
                in
                (* A member pays its whole demand vector wherever it
                   appears — the replication accounting the per-side
                   resource counters use. *)
                let demand = Array.make Hypergraph.demand_arity 0 in
                List.iter
                  (fun (c, _) ->
                    let d = (Hypergraph.cell hg c).Hypergraph.demand in
                    for a = 0 to Array.length d - 1 do
                      demand.(a) <- demand.(a) + d.(a)
                    done)
                  p.members;
                let iobs = ref 0 in
                Array.iteri
                  (fun n touchers ->
                    if List.mem j touchers then
                      let outside =
                        hg.Hypergraph.net_external.(n)
                        || List.exists (fun k -> k <> j) touchers
                      in
                      if outside then incr iobs)
                  net_touchers;
                if clbs <> p.clbs then
                  err "part %d: recorded %d CLBs, members sum to %d" j p.clbs
                    clbs
                else if !iobs <> p.iobs then
                  err "part %d: recorded %d IOBs, recomputed %d" j p.iobs !iobs
                else if Array.length p.used <> Hypergraph.demand_arity then
                  err "part %d: used vector has %d axes, expected %d" j
                    (Array.length p.used) Hypergraph.demand_arity
                else if p.used <> demand then
                  err "part %d: recorded resource vector %s, members sum to %s"
                    j
                    (String.concat ","
                       (Array.to_list (Array.map string_of_int p.used)))
                    (String.concat ","
                       (Array.to_list (Array.map string_of_int demand)))
                else if
                  not
                    (Fpga.Device.fits ~relax_low:true p.device ~clbs
                       ~iobs:!iobs)
                then err "part %d: violates device %s" j p.device.Fpga.Device.name
                else check_parts (j + 1) rest
          in
          match check_parts 0 result.parts with
          | Error _ as e -> e
          | Ok () ->
              (* 3. The recorded summary and replication figures must agree
                 with what the members imply — a result cannot claim a cost
                 or interconnect it does not have. *)
              let summary, replicated, total = summarize_parts hg result.parts in
              let r = result.summary in
              if r.Fpga.Cost.num_partitions <> summary.Fpga.Cost.num_partitions
              then
                err "summary: %d partitions recorded, %d parts present"
                  r.Fpga.Cost.num_partitions summary.Fpga.Cost.num_partitions
              else if r.Fpga.Cost.total_cost <> summary.Fpga.Cost.total_cost
              then
                err "summary: recorded cost %.2f, devices sum to %.2f"
                  r.Fpga.Cost.total_cost summary.Fpga.Cost.total_cost
              else if r.Fpga.Cost.total_clbs <> summary.Fpga.Cost.total_clbs
              then
                err "summary: recorded %d CLBs, parts sum to %d"
                  r.Fpga.Cost.total_clbs summary.Fpga.Cost.total_clbs
              else if r.Fpga.Cost.total_iobs <> summary.Fpga.Cost.total_iobs
              then
                err "summary: recorded %d IOBs, parts sum to %d"
                  r.Fpga.Cost.total_iobs summary.Fpga.Cost.total_iobs
              else if result.replicated_cells <> replicated then
                err "recorded %d replicated cells, members imply %d"
                  result.replicated_cells replicated
              else if result.total_cells <> total then
                err "recorded %d total cells, hypergraph has %d"
                  result.total_cells total
              else Ok ()))

let pp_result fmt r =
  Format.fprintf fmt
    "@[<v>%a@,replicated cells: %d / %d (%.1f%%)@,runs: %d (%d feasible), %.2fs wall (%.2fs CPU)@,"
    Fpga.Cost.pp_summary r.summary r.replicated_cells r.total_cells
    (100.0 *. float_of_int r.replicated_cells /. float_of_int (max 1 r.total_cells))
    r.runs r.feasible_runs r.wall_secs r.cpu_secs;
  List.iteri
    (fun j p ->
      Format.fprintf fmt "  part %d: %-8s %4d CLBs (%3.0f%%), %3d IOBs (%3.0f%%)@,"
        j p.device.Fpga.Device.name p.clbs
        (100.0 *. Fpga.Device.clb_utilization p.device ~clbs:p.clbs)
        p.iobs
        (100.0 *. Fpga.Device.iob_utilization p.device ~iobs:p.iobs))
    r.parts;
  Format.fprintf fmt "@]"
