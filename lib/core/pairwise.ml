open Kway_types

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
  (* Both parts already hold cells and keep their devices: each side
     must stay inside its device's window, lower bound relaxed to one
     CLB. *)
  let window (p : part) = Fpga.Objective.window ~relax_low:true obj p.device in
  let sub_active =
    Option.map (fun act k -> act (fst spec_arr.(k))) active
  in
  let cfg =
    Fm.window_config
      ~objective:(fm_obj_of obj.Fpga.Objective.refine_objective)
      ~replication:opts.replication ~max_passes:opts.max_passes
      ~should_stop:opts.should_stop ?active:sub_active ~a:(window pi)
      ~b:(window pj) ()
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
      let device =
        right_size ~relax_low:true obj library ~demand:used ~iobs p.device
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
              else begin
                let outcome =
                  refine_pair ~opts ~obs ?active ~mask_i ~mask_j hg library
                    parts.(i) parts.(j)
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
