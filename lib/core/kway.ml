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
let count_true = Array.fold_left (fun a b -> if b then a + 1 else a) 0

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

  let make ?(base = default) ?(runs = base.runs) ?(seed = base.seed)
      ?(replication = base.replication) ?(max_passes = base.max_passes)
      ?(fm_attempts = base.fm_attempts) ?(refine_rounds = base.refine_rounds)
      ?(jobs = base.jobs) ?(should_stop = base.should_stop)
      ?(objective = base.objective) ?(strategy = base.strategy) () =
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

(* [compress um m]: the bits of [m] at the positions [um] keeps,
   renumbered densely (the copy's output index of each kept output);
   [expand um m] is its inverse. *)
let compress um m =
  let acc = ref Bitvec.empty and pos = ref 0 in
  for o = 0 to Bitvec.max_width - 1 do
    if Bitvec.mem o um then begin
      if Bitvec.mem o m then acc := Bitvec.add !pos !acc;
      incr pos
    end
  done;
  !acc

let expand um m =
  let acc = ref Bitvec.empty and pos = ref 0 in
  for o = 0 to Bitvec.max_width - 1 do
    if Bitvec.mem o um then begin
      if Bitvec.mem !pos m then acc := Bitvec.add o !acc;
      incr pos
    end
  done;
  !acc

(* A copy in a sub-hypergraph maps back to the original as [(orig, um)]:
   the original cell and the original outputs the copy carries, which
   [Hypergraph.induce_copies] numbers in ascending order. [lift orig_of]
   takes a copy-coordinate member [(c, m)] to original coordinates. *)
let lift orig_of (c, m) =
  let orig, um = orig_of.(c) in
  (orig, expand um m)

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
        ~res_max:(Fpga.Objective.res_max opts.objective dev)
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
                        (* Right-size: the split was shaped for [dev], but a
                           cheaper device may accept the same subcircuit. *)
                        let dev =
                          match
                            Fpga.Objective.cheapest obj library ~demand:used
                              ~iobs
                          with
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


(* ------------------------------------------------------------------ *)
(* Pairwise refinement                                                *)
(* ------------------------------------------------------------------ *)

(* Re-bipartition the union of two finished parts under both device
   windows, optimising total terminal usage (eq. 2 restricted to the
   pair). Cells of other parts appear as external context, so their IOB
   counts cannot change. [active] (original-cell coordinates) restricts
   which cells may move — the warm-start path passes the edit's dirty set
   so refinement costs O(blast radius). [mask_i] and [mask_j] are
   all-empty cell-indexed scratch arrays, handed back all-empty. Returns
   the improved pair or [None]. *)
let refine_pair ~opts ~obs ?active ~mask_i ~mask_j hg library (pi : part)
    (pj : part) =
  List.iter (fun (c, m) -> mask_i.(c) <- m) pi.members;
  List.iter (fun (c, m) -> mask_j.(c) <- m) pj.members;
  (* Ascending cell order: the specs come out sorted. *)
  let specs = ref [] in
  for c = Array.length mask_i - 1 downto 0 do
    let m = Bitvec.union mask_i.(c) mask_j.(c) in
    if not (Bitvec.is_empty m) then specs := (c, m) :: !specs
  done;
  let hu, spec_arr = Hypergraph.induce_copies hg !specs in
  (* Initial assignment: part j's share of each cell sits on side B. *)
  let st =
    Partition_state.create_with_masks hu ~masks:(fun k ->
        let orig, um = spec_arr.(k) in
        compress um mask_j.(orig))
  in
  List.iter (fun (c, _) -> mask_i.(c) <- Bitvec.empty) pi.members;
  List.iter (fun (c, _) -> mask_j.(c) <- Bitvec.empty) pj.members;
  let obj = opts.objective in
  let bounds (p : part) =
    Fm.bounds
      ~res_max:(Fpga.Objective.res_max obj p.device)
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
  let s0 = Fm.score_of cfg st in
  let s1 = Fm.run_staged ~obs cfg st in
  let pen, _, _ = s1 in
  if pen <> 0 || s1 >= s0 then None
  else begin
    let rebuild side (p : part) =
      let clbs = Partition_state.area st side in
      let iobs = Partition_state.terminals st side in
      let used = Partition_state.resources st side in
      (* Keep the device unless a cheaper one now accepts the side. *)
      let device =
        match
          Fpga.Objective.cheapest ~relax_low:true obj library ~demand:used ~iobs
        with
        | Some d
          when obj.Fpga.Objective.device_cost d
               < obj.Fpga.Objective.device_cost p.device ->
            d
        | _ -> p.device
      in
      let members =
        List.map (lift spec_arr) (Partition_state.side_copies st side)
      in
      { device; members; clbs; iobs; used }
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
    let mask_i = Array.make (Hypergraph.num_cells hg) Bitvec.empty in
    let mask_j = Array.make (Hypergraph.num_cells hg) Bitvec.empty in
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
      (* [shared.(i * k + j)], i < j: nets part i and part j share. Parts
         are visited in ascending order and pushed once per net, so each
         [touch] list is strictly decreasing: every pair in it is counted
         once, with no sort. *)
      let shared = Array.make (k * k) 0 in
      let rec bump j = function
        | [] -> ()
        | i :: rest ->
            shared.((i * k) + j) <- shared.((i * k) + j) + 1;
            bump j rest
      in
      let rec count_pairs = function
        | [] -> ()
        | j :: rest ->
            bump j rest;
            count_pairs rest
      in
      Array.iter count_pairs touch;
      (* Most-connected pairs first; cap the sweep at the 4k
         best-connected pairs so refinement stays a small fraction of
         the driver's own cost on many-part results — the sorted order
         puts most of the recoverable gain in those. The cap is the same
         on every graph; net-heavy graphs are tamed by the pass budget
         above instead. *)
      let counted = ref [] in
      for i = 0 to k - 1 do
        for j = i + 1 to k - 1 do
          let n = shared.((i * k) + j) in
          if n > 0 then counted := (n, (i, j)) :: !counted
        done
      done;
      let pairs =
        List.sort (fun a b -> compare b a) !counted
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
                refine_pair ~opts ~obs ?active ~mask_i ~mask_j hg library
                  parts.(i) parts.(j)
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
(* Whole-cell labellings                                              *)
(* ------------------------------------------------------------------ *)

(* Running per-part sums of a whole-cell labelling over [k] parts: CLBs,
   demand vectors, and each net's parts with their pins (the part's cells
   on the net). Net [nt] owns the slots [t_first.(nt) ..] of [t_slots],
   [min k (cells on nt)] of them, [t_count.(nt)] in use, each one word
   packing [part lsl pin_bits + pins] and kept ascending, so in part
   order. Each cell sits in one part, so a net never carries more parts
   than cells: a tally costs O(nets + pins) words whatever [k]. Cells are
   added and moved in place, allocating nothing. *)
type tally = {
  t_hg : Hypergraph.t;
  t_first : int array;  (** nets + 1 slot offsets *)
  t_count : int array;  (** distinct parts on each net *)
  t_slots : int array;  (** (part, pins) slots, net by net *)
  t_clbs : int array;
  t_used : int array array;
}

let pin_bits = Sys.int_size / 2
let slot_part s = s lsr pin_bits
let slot_pins s = s land ((1 lsl pin_bits) - 1)

(* Part [p]'s slot on net [nt] when [p] is there, else [-1 - x] for the
   slot [x] it would take: the first whose part is above [p]. *)
let slot t nt p =
  let x = ref t.t_first.(nt) in
  let stop = !x + t.t_count.(nt) in
  while !x < stop && slot_part t.t_slots.(!x) < p do
    incr x
  done;
  if !x < stop && slot_part t.t_slots.(!x) = p then !x else -1 - !x

(* Part [p]'s pins on net [nt]. *)
let pins t nt p =
  let x = slot t nt p in
  if x >= 0 then slot_pins t.t_slots.(x) else 0

(* Cell [c] joins ([by] = 1) or leaves ([by] = -1) part [p]. *)
let tally_add t c p by =
  let cell = Hypergraph.cell t.t_hg c in
  t.t_clbs.(p) <- t.t_clbs.(p) + (by * cell.Hypergraph.area);
  let d = cell.Hypergraph.demand and used = t.t_used.(p) in
  for a = 0 to Array.length d - 1 do
    used.(a) <- used.(a) + (by * d.(a))
  done;
  let nets = Hypergraph.cell_nets cell in
  for y = 0 to Array.length nets - 1 do
    let nt = nets.(y) in
    let x = slot t nt p in
    let stop = t.t_first.(nt) + t.t_count.(nt) in
    if x >= 0 then begin
      t.t_slots.(x) <- t.t_slots.(x) + by;
      if slot_pins t.t_slots.(x) = 0 then begin
        Array.blit t.t_slots (x + 1) t.t_slots x (stop - x - 1);
        t.t_count.(nt) <- t.t_count.(nt) - 1
      end
    end
    else begin
      let x = -1 - x in
      Array.blit t.t_slots x t.t_slots (x + 1) (stop - x);
      t.t_slots.(x) <- (p lsl pin_bits) + 1;
      t.t_count.(nt) <- t.t_count.(nt) + 1
    end
  done

(* Move cell [c] whole from part [src] to part [dst]. Leaving first keeps
   every net within its slots. *)
let tally_move t c ~src ~dst =
  tally_add t c src (-1);
  tally_add t c dst 1

(* The tally of [labels] over [k] parts; a cell labelled [-1] is left
   out. *)
let tally hg k labels =
  let net_cells = hg.Hypergraph.net_cells in
  let nn = Array.length net_cells in
  let first = Array.make (nn + 1) 0 in
  for nt = 0 to nn - 1 do
    first.(nt + 1) <- first.(nt) + min k (Array.length net_cells.(nt))
  done;
  let t =
    {
      t_hg = hg;
      t_first = first;
      t_count = Array.make nn 0;
      t_slots = Array.make first.(nn) 0;
      t_clbs = Array.make k 0;
      t_used = Array.make_matrix k Hypergraph.demand_arity 0;
    }
  in
  Array.iteri (fun c p -> if p >= 0 then tally_add t c p 1) labels;
  t

(* Step one of materialising a whole-cell labelling, after its tally:
   count each part's IOBs and settle its device. A part pays an IOB for
   each net it shares with another part or with the outside. It keeps its
   device unless it outgrew it, and then takes the cheapest accepting
   device (lower window relaxed); a part with no CLBs, so no cell, keeps
   its device. *)
let settle_devices ~options ~library ~(devices : Fpga.Device.t array) t =
  let k = Array.length devices in
  let iobs = Array.make k 0 in
  for nt = 0 to Array.length t.t_count - 1 do
    let len = t.t_count.(nt) in
    if len >= 2 || (len = 1 && t.t_hg.Hypergraph.net_external.(nt)) then
      for x = t.t_first.(nt) to t.t_first.(nt) + len - 1 do
        let j = slot_part t.t_slots.(x) in
        iobs.(j) <- iobs.(j) + 1
      done
  done;
  let devices = Array.copy devices in
  let obj = options.objective in
  (* Downwards, so an error names the highest part that fits nothing. *)
  let rec settle p =
    if p < 0 then Ok (iobs, devices)
    else
      let demand = t.t_used.(p) and io = iobs.(p) in
      if
        t.t_clbs.(p) = 0
        || Fpga.Objective.fits ~relax_low:true obj devices.(p) ~demand ~iobs:io
      then settle (p - 1)
      else
        match
          Fpga.Objective.cheapest ~relax_low:true obj library ~demand ~iobs:io
        with
        | Some d ->
            devices.(p) <- d;
            settle (p - 1)
        | None ->
            Error
              (Printf.sprintf "Kway.project_parts: no device accepts part %d \
                 (%d CLBs / %d IOBs)" p t.t_clbs.(p) io)
  in
  settle (k - 1)

(* Step two: the parts themselves, each with its member list. Parts no
   cell carries are dropped. *)
let parts_of_tally t ~labels ~iobs ~(devices : Fpga.Device.t array) =
  let members = Array.make (Array.length devices) [] in
  for c = Array.length labels - 1 downto 0 do
    let full =
      Bitvec.full (Array.length (Hypergraph.cell t.t_hg c).Hypergraph.outputs)
    in
    members.(labels.(c)) <- (c, full) :: members.(labels.(c))
  done;
  let parts = ref [] in
  for p = Array.length devices - 1 downto 0 do
    if members.(p) <> [] then
      parts :=
        { device = devices.(p); members = members.(p); clbs = t.t_clbs.(p);
          iobs = iobs.(p); used = t.t_used.(p) }
        :: !parts
  done;
  !parts

(* The parts a tally's labelling puts at least one cell in (every cell
   has an area of at least 1). *)
let live_parts t =
  Array.fold_left (fun a cl -> if cl > 0 then a + 1 else a) 0 t.t_clbs

(* Both steps: the parts of a warm start and of [project_parts]. Labels
   carry no replication: every cell sits whole in its labelled part. *)
let materialise ~options ~library ~labels ~devices t =
  Result.map
    (fun (iobs, devices) -> parts_of_tally t ~labels ~iobs ~devices)
    (settle_devices ~options ~library ~devices t)

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
  else materialise ~options ~library ~labels ~devices (tally hg k labels)

(* ------------------------------------------------------------------ *)
(* Greedy boundary k-way refinement                                   *)
(* ------------------------------------------------------------------ *)

(* Deterministic greedy passes moving whole cells to the neighbouring
   part that most reduces total terminal usage (eq. 2), under the fixed
   per-part device windows. The multilevel walk refines every level with
   this: [refine_pair] builds an induced subgraph and runs multi-pass F-M
   per part pair, which is superlinear in level size, while a greedy
   sweep costs O(pins) per pass — the only refinement shape that survives
   100k-cell levels. Only [dirty] cells (the projected boundary) are
   candidates. A move updates [labels], the tally [t] and the live IOB
   counts [iobs] in place; devices are kept, since the windows are
   checked per move and cheapening is the flat driver's job. Past its
   per-part windows and a [k]-slot candidate buffer it allocates
   nothing. *)
let greedy_refine ~opts ~obs ~dirty ~rounds ~labels ~iobs ~devices t =
  let hg = t.t_hg in
  let k = Array.length devices in
  let ext = hg.Hypergraph.net_external in
  let clbs = t.t_clbs and used = t.t_used in
  let max_clbs = Array.map Fpga.Device.max_clbs devices in
  let res_max = Array.map (Fpga.Objective.res_max opts.objective) devices in
  let adjacent = Array.make k false in
  let cands = Array.make k 0 in
  for round = 1 to rounds do
    let moved = ref 0 in
    let shed = ref 0 in
    Obs.span obs (Printf.sprintf "greedy%d" round) (fun () ->
        for c = 0 to Hypergraph.num_cells hg - 1 do
          if dirty.(c) && not (opts.should_stop ()) then begin
            let i = labels.(c) in
            let cell = Hypergraph.cell hg c in
            let nets = Hypergraph.cell_nets cell in
            (* The other parts on the cell's nets, in discovery order (its
               nets ascending, then parts ascending). *)
            let ncands = ref 0 in
            adjacent.(i) <- true;
            for x = 0 to Array.length nets - 1 do
              let nt = nets.(x) in
              for y = t.t_first.(nt) to t.t_first.(nt) + t.t_count.(nt) - 1 do
                let j = slot_part t.t_slots.(y) in
                if not adjacent.(j) then begin
                  adjacent.(j) <- true;
                  cands.(!ncands) <- j;
                  incr ncands
                end
              done
            done;
            adjacent.(i) <- false;
            for y = 0 to !ncands - 1 do
              adjacent.(cands.(y)) <- false
            done;
            let a = cell.Hypergraph.area in
            let d = cell.Hypergraph.demand in
            (* The best fitting move so far; the first wins a tie. *)
            let best = ref (-1) in
            let best_di = ref 0 and best_dj = ref 0 in
            for y = 0 to !ncands - 1 do
              let j = cands.(y) in
              (* Terminal delta for parts [i] (source) and [j] (target)
                 when the full cell moves. Every other part keeps its pins
                 and at least as many co-touchers on each affected net, so
                 only these two change. *)
              let di = ref 0 and dj = ref 0 in
              for x = 0 to Array.length nets - 1 do
                let nt = nets.(x) in
                let ci = pins t nt i and cj = pins t nt j in
                let tc = t.t_count.(nt) in
                let tc' =
                  tc - (if ci = 1 then 1 else 0) + if cj = 0 then 1 else 0
                in
                let e = ext.(nt) in
                let outside = e || tc >= 2 and outside' = e || tc' >= 2 in
                if outside then decr di;
                if ci > 1 && outside' then incr di;
                if cj > 0 && outside then decr dj;
                if outside' then incr dj
              done;
              let di = !di and dj = !dj in
              let fits =
                clbs.(j) + a <= max_clbs.(j)
                && clbs.(i) - a >= 1
                && iobs.(j) + dj <= devices.(j).Fpga.Device.terminals
                && iobs.(i) + di <= devices.(i).Fpga.Device.terminals
                &&
                let caps = res_max.(j) and uj = used.(j) in
                let ok = ref true in
                for ax = 0 to Array.length caps - 1 do
                  let dem = if ax < Array.length d then d.(ax) else 0 in
                  if uj.(ax) + dem > caps.(ax) then ok := false
                done;
                !ok
              in
              if
                fits && di + dj < 0
                && (!best < 0 || di + dj < !best_di + !best_dj)
              then begin
                best := j;
                best_di := di;
                best_dj := dj
              end
            done;
            if !best >= 0 then begin
              let j = !best in
              labels.(c) <- j;
              iobs.(i) <- iobs.(i) + !best_di;
              iobs.(j) <- iobs.(j) + !best_dj;
              tally_move t c ~src:i ~dst:j;
              incr moved;
              shed := !shed - (!best_di + !best_dj)
            end
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
  done

let summarize_parts hg parts =
  let placements =
    List.map
      (fun p -> Fpga.Cost.place p.device ~used:p.used ~clbs:p.clbs ~iobs:p.iobs ())
      parts
  in
  let summary = Fpga.Cost.summarize placements in
  let appearances = Array.make (Hypergraph.num_cells hg) 0 in
  List.iter
    (fun p ->
      List.iter
        (fun (c, _) -> appearances.(c) <- appearances.(c) + 1)
        p.members)
    parts;
  let replicated =
    Array.fold_left (fun acc n -> if n > 1 then acc + 1 else acc) 0 appearances
  in
  (summary, replicated, Hypergraph.num_cells hg)

let clock () = (Obs.Clock.wall (), Obs.Clock.cpu ())

(* The one [result] constructor. The summary and replication figures are
   recounted from the parts, the clocks measure from [since] (zero without
   it), and a call whose [should_stop] fired returns [Error cancelled]
   whatever it produced. *)
let finish ?since ~should_stop ~runs ~feasible_runs hg outcome =
  let wall_secs, cpu_secs =
    match since with
    | Some (w0, t0) -> (Obs.Clock.wall () -. w0, Obs.Clock.cpu () -. t0)
    | None -> (0.0, 0.0)
  in
  if should_stop () then Error cancelled
  else
    Result.map
      (fun parts ->
        let summary, replicated_cells, total_cells = summarize_parts hg parts in
        { parts; summary; replicated_cells; total_cells; wall_secs; cpu_secs;
          runs; feasible_runs })
      outcome

(* Package externally produced parts as a result (for [check]ing a
   partition built by hand, e.g. a projected labelling in the property
   tests). The clocks and run counters describe no search, so they are
   zero/one. *)
let result_of_parts hg parts =
  Result.get_ok
    (finish ~should_stop:never_stop ~runs:1 ~feasible_runs:1 hg (Ok parts))

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
        Ok (refine ~opts:options ~obs hg library parts)
    | Some (_, (parts, _)) -> Ok parts
    | None -> Error "no feasible k-way partition found in any run"
  in
  finish ~since ~should_stop:options.should_stop ~runs:options.runs
    ~feasible_runs:!feasible hg outcome

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

let devices_of parts = Array.of_list (List.map (fun p -> p.device) parts)

type warm = {
  w_labels : int array;
  w_dirty : bool array;
  w_devices : Fpga.Device.t array;
}

(* The warm seed of an edit: the base partition's labelling projected
   onto the edited hypergraph, with every replicated base cell forced
   dirty so the warm start re-decides its replication. *)
let project_warm ~base ~base_parts edited =
  let base_labels, base_dirty = labels_of_parts base base_parts in
  let proj = Projection.project ~base ~base_labels ~base_dirty edited in
  ( {
      w_labels = proj.Projection.labels;
      w_dirty = proj.Projection.dirty;
      w_devices = devices_of base_parts;
    },
    proj )

(* Seed cells with no inherited label (new cells of the edit) where their
   connectivity pulls them: most incident nets already present, ties
   broken towards parts with capacity headroom, then towards the emptier
   part. Greedy in ascending id — deterministic, and the dirty-restricted
   refinement cleans up any misplacement. Seeded cells become dirty;
   returns the finished labelling's tally and how many there were. *)
let seed_unlabelled hg ~(devices : Fpga.Device.t array) labels dirty =
  let k = Array.length devices in
  let n = Array.length labels in
  let t = tally hg k labels in
  let clbs = t.t_clbs in
  let affinity = Array.make k 0 in
  let seeded = ref 0 in
  for c = 0 to n - 1 do
    if labels.(c) < 0 then begin
      Array.fill affinity 0 k 0;
      let nets = Hypergraph.cell_nets (Hypergraph.cell hg c) in
      for x = 0 to Array.length nets - 1 do
        let nt = nets.(x) in
        for y = t.t_first.(nt) to t.t_first.(nt) + t.t_count.(nt) - 1 do
          let p = slot_part t.t_slots.(y) in
          affinity.(p) <- affinity.(p) + 1
        done
      done;
      let area = (Hypergraph.cell hg c).Hypergraph.area in
      (* The largest key (affinity, fits, -clbs), lexicographically;
         the first part wins a tie. *)
      let best = ref 0 in
      let best_aff = ref min_int and best_fits = ref min_int in
      let best_neg = ref min_int in
      for p = 0 to k - 1 do
        let fits =
          if clbs.(p) + area <= Fpga.Device.max_clbs devices.(p) then 1 else 0
        in
        let aff = affinity.(p) and neg = -clbs.(p) in
        if
          aff > !best_aff
          || aff = !best_aff
             && (fits > !best_fits || (fits = !best_fits && neg > !best_neg))
        then begin
          best_aff := aff;
          best_fits := fits;
          best_neg := neg;
          best := p
        end
      done;
      labels.(c) <- !best;
      dirty.(c) <- true;
      tally_add t c !best 1;
      incr seeded
    end
  done;
  (t, !seeded)

let warm_start ?(obs = Obs.noop) ?(options = Options.default) ~library ~warm hg
    =
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let since = clock () in
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
    let t, seeded = seed_unlabelled hg ~devices:warm.w_devices labels dirty in
    (* Refine only inside the edit's blast radius: at least one round even
       when the options say zero, since refinement is the entire
       optimisation a warm start performs. *)
    let opts = { options with refine_rounds = max 1 options.refine_rounds } in
    let outcome =
      Result.map
        (fun parts ->
          Obs.span obs "warm" (fun () ->
              refine ~opts ~obs ~dirty hg library parts))
        (materialise ~options ~library ~labels ~devices:warm.w_devices t)
    in
    let result =
      finish ~since ~should_stop:options.should_stop ~runs:1 ~feasible_runs:1
        hg outcome
    in
    (match result with
    | Ok r when Obs.enabled obs ->
        let dirty_cells = count_true dirty in
        Obs.incr obs "kway.warm_starts";
        Obs.observe obs "kway.warm_seeded_cells" seeded;
        Obs.observe obs "kway.warm_dirty_cells" dirty_cells;
        Obs.event obs "kway.warm"
          [
            ("seeded", Obs.Json.Int seeded);
            ("dirty", Obs.Json.Int dirty_cells);
            ("parts", Obs.Json.Int r.summary.Fpga.Cost.num_partitions);
            ("total_cost", Obs.Json.Float r.summary.Fpga.Cost.total_cost);
            ("total_iobs", Obs.Json.Int r.summary.Fpga.Cost.total_iobs);
          ]
    | _ -> ());
    result
  end

(* ------------------------------------------------------------------ *)
(* Multilevel V-cycle                                                 *)
(* ------------------------------------------------------------------ *)

(* Per-axis cluster weight caps for the coarsening: a fraction of the
   {e smallest} per-axis device window in the library, so even a part on
   the cheapest device is assembled from several clusters and the coarse
   F-M retains packing freedom — capping by the largest window lets one
   cluster swallow half an XC3090, which no XC3030-sized part can then
   accept, and the IOB windows become unreachable at that granularity.
   Secondary axes are capped only where the objective's [res_max] bounds
   them: under the paper's scalar feasibility it is empty (capping them
   would refuse merges the model cannot reject), so only the CLB axis
   binds; under vector feasibility every demand axis is capped so coarse
   clusters stay placeable. *)
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
  for a = 1 to arity - 1 do
    caps.(a) <-
      cap_of
        (min_positive_axis (fun d ->
             Fpga.Resource.get (Fpga.Objective.res_max objective d) a))
  done;
  caps

(* The V-cycle: coarsen under the weight caps, run the flat
   heterogeneous-device k-way on the coarsest graph, then project the
   labelling down level by level, refining each level's boundary cells
   with the greedy mover. Functional replication runs once, after the
   finest level: coarse clusters are opaque (every output depends on
   every input), so replication above them has no adjacency slack to
   exploit — the RePart argument. *)
let multilevel_run ~obs ~(options : options) ~ml ~library hg =
  let since = clock () in
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
      ~should_stop:options.should_stop ~rng hg
  in
  (* A stop seen during coarsening ends the run before the coarse solve,
     and the levels it left unfinished are not reported. *)
  let stopped = options.should_stop () in
  if Obs.enabled obs && not stopped then begin
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
  if stopped then Error cancelled
  else if hier.Coarsen.levels = [] then
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
        (* Each level starts from the coarser level's labelling and
           devices, and the greedy mover moves cells in the level's
           tally, so parts are built once, from the finest level's. *)
        let rec walk idx (coarse_labels, devices) (fine, map) finer =
          if options.should_stop () then Error cancelled
          else
            let labels = Coarsen.project_labels ~map coarse_labels in
            let t = tally fine (Array.length devices) labels in
            match settle_devices ~options ~library ~devices t with
            | Error _ as e -> e
            | Ok (iobs, devices) -> (
                let dirty = Hypergraph.boundary fine ~labels in
                (* Span names are part of the benchmark:
                   e2ebench/layers.ml splits "core.partition" by its child
                   spans "coarsen<d>", "run<r>" and "refine<n>", and tells
                   a walk level from the flat solve's winner refinement by
                   the nested "greedy<round>" sweep (and, at the finest
                   level, the replication round's "refine<round>").
                   Renaming any of them (the "refine<n>" clash on the
                   roadmap included) waits for a change that updates the
                   benchmark with it; test_core pins the shape. *)
                let parts =
                  Obs.span obs (Printf.sprintf "refine%d" idx) (fun () ->
                      if live_parts t >= 2 then
                        greedy_refine ~opts:options ~obs ~dirty
                          ~rounds:ml.refine_passes ~labels ~iobs ~devices t;
                      match (finer, options.replication) with
                      | _ :: _, _ -> []
                      | [], `None -> parts_of_tally t ~labels ~iobs ~devices
                      | [], `Functional _ ->
                          (* Replication, once: the flat driver's pairwise
                             F-M over the finest boundary, as a warm start
                             refines. *)
                          let opts =
                            { options with refine_rounds = ml.refine_passes }
                          in
                          refine ~opts ~obs
                            ~dirty:(Hypergraph.boundary fine ~labels)
                            fine library
                            (parts_of_tally t ~labels ~iobs ~devices))
                in
                if Obs.enabled obs then
                  Obs.event obs "ml.refine"
                    [
                      ("level", Obs.Json.Int idx);
                      ("cells", Obs.Json.Int (Hypergraph.num_cells fine));
                      ("dirty", Obs.Json.Int (count_true dirty));
                      ("parts", Obs.Json.Int (live_parts t));
                    ];
                match finer with
                | [] -> Ok parts
                | next :: finer -> walk (idx + 1) (labels, devices) next finer)
        in
        finish ~since ~should_stop:options.should_stop ~runs:coarse_options.runs
          ~feasible_runs:coarse_res.feasible_runs hg
          (match hier.Coarsen.levels with
          | [] -> Ok coarse_res.parts
          | level :: finer ->
              let labels, _ =
                labels_of_parts hier.Coarsen.coarsest coarse_res.parts
              in
              walk 0 (labels, devices_of coarse_res.parts) level finer)
  end

let partition ?(obs = Obs.noop) ?(options = Options.default) ~library hg =
  match options.strategy with
  | Flat -> flat_partition ~obs ~options ~library hg
  | Multilevel ml -> multilevel_run ~obs ~options ~ml ~library hg

let check ?(objective = Fpga.Objective.paper) hg result =
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
             pass the objective's device test. Terminals recomputed from
             the original hypergraph: a net consumes an IOB of a part iff
             the part touches it and it also lives outside the part. *)
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
                    (Fpga.Objective.fits ~relax_low:true objective p.device
                       ~demand ~iobs:!iobs)
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
