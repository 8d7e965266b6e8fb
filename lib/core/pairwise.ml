open Kway_types
module F = Hypergraph.Flat

(* The refiner's free list: the one F-M state [refine_pair] works in at a
   time, kept between pairs and rebuilt in place for the next pair's
   union when it is large enough ([Partition_state.reuse]). *)
let acquire pool g ~masks =
  match !pool with
  | None -> Partition_state.create_with_masks g ~masks
  | Some st ->
      pool := None;
      Partition_state.reuse_with_masks st g ~masks

(* Re-bipartition the union of two finished parts under both device
   windows, optimising total terminal usage (eq. 2 restricted to the
   pair). Cells of other parts appear as external context, so their IOB
   counts cannot change. [active] (original-cell coordinates) restricts
   which cells may move — the warm-start path passes the edit's dirty set
   so refinement costs O(blast radius). [mask_i] and [mask_j] are
   all-empty cell-indexed scratch arrays, handed back all-empty. The
   union is carved out of [g] into [union], the refiner's one carve
   buffer, and the state comes from [pool] and goes back to it. Returns
   the improved pair or [None]. *)
let refine_pair ~opts ~passes ~obs ?active ~pool ~union ~mask_i ~mask_j g
    library (pi : part) (pj : part) =
  List.iter (fun (c, m) -> mask_i.(c) <- m) pi.members;
  List.iter (fun (c, m) -> mask_j.(c) <- m) pj.members;
  for c = 0 to Array.length mask_i - 1 do
    let m = Bitvec.union mask_i.(c) mask_j.(c) in
    if not (Bitvec.is_empty m) then F.stage union ~cell:c m
  done;
  F.carve g ~into:union;
  (* Initial assignment: part j's share of each cell sits on side B. *)
  let st =
    acquire pool union ~masks:(fun k ->
        Bitvec.compress union.F.origin_mask.(k)
          mask_j.(union.F.origin_cell.(k)))
  in
  List.iter (fun (c, _) -> mask_i.(c) <- Bitvec.empty) pi.members;
  List.iter (fun (c, _) -> mask_j.(c) <- Bitvec.empty) pj.members;
  let obj = opts.objective in
  (* Both parts already hold cells and keep their devices: each side
     must stay inside its device's window, lower bound relaxed to one
     CLB. *)
  let window (p : part) = Fpga.Objective.window ~relax_low:true obj p.device in
  let sub_active =
    Option.map (fun act k -> act union.F.origin_cell.(k)) active
  in
  let cfg =
    Fm.window_config
      ~objective:obj.Fpga.Objective.refine_objective
      ~replication:opts.replication ~max_passes:passes
      ~should_stop:opts.should_stop ?active:sub_active ~a:(window pi)
      ~b:(window pj) ()
  in
  let s0 = Fm.score_of cfg st in
  let s1 = Fm.run_staged ~obs cfg st in
  let pen, _, _ = s1 in
  let outcome =
    if pen <> 0 || s1 >= s0 then None
    else begin
      let rebuild side (p : part) =
        let clbs = Partition_state.area st side in
        let iobs = Partition_state.terminals st side in
        let used = Partition_state.resources st side in
        let device =
          right_size ~relax_low:true obj library ~demand:used ~iobs p.device
        in
        let members =
          List.map (lift union) (Partition_state.side_copies st side)
        in
        { device; members; clbs; iobs; used }
      in
      let _, t0, _ = s0 and _, t1, _ = s1 in
      Some (rebuild Partition_state.A pi, rebuild Partition_state.B pj, t0, t1)
    end
  in
  pool := Some st;
  outcome

(* Refinement driver: [rounds] sweeps of the part pairs that share nets,
   most-connected first, each pair's F-M given [passes]. With [dirty],
   only nets touching a dirty cell count towards pair selection (pairs
   coupled solely through clean nets have nothing movable between them)
   and only dirty cells may move. *)
let refine ~opts ~passes ~rounds ~obs ?dirty g library parts =
  let parts = Array.of_list parts in
  let k = Array.length parts in
  if k < 2 then Array.to_list parts
  else begin
    (* Each [refine_pair] hauls every net touching the pair into its
       carved union, so on net-heavy graphs (coarse multilevel
       clusters retain most of the original nets) the per-pair F-M gets
       a tighter pass budget. Paper-suite graphs sit far below the
       threshold and keep the caller's passes. *)
    let nets = g.F.num_nets in
    let passes = if nets > 16384 then min passes 4 else passes in
    let net_counts =
      match dirty with
      | None -> None
      | Some d ->
          let dn = Array.make nets false in
          Array.iteri
            (fun c is_dirty ->
              if is_dirty then
                for i = g.F.cell_off.(c) to g.F.cell_off.(c + 1) - 1 do
                  dn.(g.F.inc_net.(i)) <- true
                done)
            d;
          Some dn
    in
    let active = Option.map (fun d c -> d.(c)) dirty in
    let mask_i = Array.make (F.num_cells g) Bitvec.empty in
    let mask_j = Array.make (F.num_cells g) Bitvec.empty in
    let pool = ref None in
    let union = F.buffer () in
    for round = 1 to rounds do
      (* Shared-net counts per pair: part [j] touches net [n] when one of
         its copies has a pin on it. *)
      let touch = Array.make nets [] in
      let mark j n =
        if match net_counts with None -> true | Some dn -> dn.(n) then
          match touch.(n) with
          | x :: _ when x = j -> ()
          | l -> touch.(n) <- j :: l
      in
      Array.iteri
        (fun j p ->
          List.iter
            (fun (c, m) ->
              let in_mask = F.input_support g c m in
              for i = g.F.cell_off.(c) to g.F.cell_off.(c + 1) - 1 do
                if
                  g.F.inc_out.(i) land m <> 0 || g.F.inc_in.(i) land in_mask <> 0
                then mark j g.F.inc_net.(i)
              done)
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
              else begin
                let outcome =
                  refine_pair ~opts ~passes ~obs ?active ~pool ~union ~mask_i
                    ~mask_j g library parts.(i) parts.(j)
                in
                (match outcome with
                | Some (pi, pj, t_before, t_after) ->
                    parts.(i) <- pi;
                    parts.(j) <- pj;
                    incr improved;
                    shed := !shed + (t_before - t_after)
                | None -> ());
                if Obs.enabled obs then begin
                  let deltas =
                    match outcome with
                    | Some (_, _, t_before, t_after) ->
                        Obs.incr obs "kway.refine_improved";
                        [
                          ("terminals_before", Obs.Json.Int t_before);
                          ("terminals_after", Obs.Json.Int t_after);
                        ]
                    | None -> []
                  in
                  Obs.event obs "kway.refine_pair"
                    (("round", Obs.Json.Int round)
                    :: ("i", Obs.Json.Int i)
                    :: ("j", Obs.Json.Int j)
                    :: ("improved", Obs.Json.Bool (Option.is_some outcome))
                    :: deltas)
                end
              end)
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
