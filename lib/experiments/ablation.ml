type repl_row = {
  name : string;
  plain_best : int;
  traditional_best : int;
  functional_best : int;
}

let traditional h =
  let spec (c : Hypergraph.cell) =
    {
      Hypergraph.s_name = c.Hypergraph.name;
      s_area = c.Hypergraph.area;
      s_demand = c.Hypergraph.demand;
      s_inputs = c.Hypergraph.inputs;
      s_outputs = c.Hypergraph.outputs;
      (* Opaque: every output depends on every input. *)
      s_supports =
        Array.map
          (fun _ -> Bitvec.full (Array.length c.Hypergraph.inputs))
          c.Hypergraph.outputs;
    }
  in
  let external_nets =
    List.filter
      (fun n -> h.Hypergraph.net_external.(n))
      (List.init h.Hypergraph.num_nets Fun.id)
  in
  Hypergraph.create ~net_names:h.Hypergraph.net_names
    ~num_nets:h.Hypergraph.num_nets ~external_nets
    (Array.to_list (Array.map spec h.Hypergraph.cells))

let best_cut ~runs ~seed ~replication h =
  let total = Hypergraph.total_area h in
  let cfg = Core.Fm.balance_config ~replication ~total_area:total () in
  let best, _ = Core.Fm.multi_start ~runs ~seed cfg h in
  Option.fold ~none:max_int ~some:fst best

let replication_model ?(runs = 10) ?(seed = 7) (e : Suite.entry) =
  let h = Lazy.force e.Suite.hypergraph in
  {
    name = e.Suite.display;
    plain_best = best_cut ~runs ~seed ~replication:`None h;
    traditional_best =
      best_cut ~runs ~seed ~replication:(`Functional 0) (traditional h);
    functional_best = best_cut ~runs ~seed ~replication:(`Functional 0) h;
  }

let pp_replication_model fmt rows =
  Format.fprintf fmt "@[<v>%-10s | %9s | %12s %6s | %12s %6s@," "Circuit"
    "no repl." "traditional" "red." "functional" "red.";
  let red base v =
    if base = 0 then 0.0
    else 100.0 *. float_of_int (base - v) /. float_of_int base
  in
  List.iter
    (fun r ->
      Format.fprintf fmt "%-10s | %9d | %12d %5.1f%% | %12d %5.1f%%@," r.name
        r.plain_best r.traditional_best
        (red r.plain_best r.traditional_best)
        r.functional_best
        (red r.plain_best r.functional_best))
    rows;
  Format.fprintf fmt
    "(best equal-halves cut; traditional replication connects replicas to \
     every input net, functional replication only to the migrated output's \
     adjacency vector)@]"

type pairing_row = {
  name : string;
  paired_clbs : int;
  unpaired_clbs : int;
  paired_r0 : int;
  unpaired_r0 : int;
  paired_plain_cut : int;
  paired_repl_cut : int;
  unpaired_plain_cut : int;
  unpaired_repl_cut : int;
}

let pairing ?(runs = 10) ?(seed = 7) (e : Suite.entry) =
  let circuit = Lazy.force e.Suite.circuit in
  let paired = Lazy.force e.Suite.hypergraph in
  let unpaired =
    Techmap.Mapper.to_hypergraph
      (Techmap.Mapper.map
         ~options:{ Techmap.Mapper.default_options with pair = false }
         circuit)
  in
  let r0 h =
    Core.Replication_potential.max_replication_factor
      (Core.Replication_potential.distribution h)
      ~threshold:0
  in
  let cut replication h = best_cut ~runs ~seed ~replication h in
  {
    name = e.Suite.display;
    paired_clbs = Hypergraph.total_area paired;
    unpaired_clbs = Hypergraph.total_area unpaired;
    paired_r0 = r0 paired;
    unpaired_r0 = r0 unpaired;
    paired_plain_cut = cut `None paired;
    paired_repl_cut = cut (`Functional 0) paired;
    unpaired_plain_cut = cut `None unpaired;
    unpaired_repl_cut = cut (`Functional 0) unpaired;
  }

let pp_pairing fmt rows =
  Format.fprintf fmt
    "@[<v>%-10s | %6s %6s | %6s %6s | %6s %6s %6s | %6s %6s %6s@," "Circuit"
    "CLBs+" "CLBs-" "r_0+" "r_0-" "cut+" "repl+" "gain" "cut-" "repl-" "gain";
  let gain base v =
    if base = 0 then 0.0
    else 100.0 *. float_of_int (base - v) /. float_of_int base
  in
  List.iter
    (fun r ->
      Format.fprintf fmt
        "%-10s | %6d %6d | %6d %6d | %6d %6d %5.1f%% | %6d %6d %5.1f%%@,"
        r.name r.paired_clbs r.unpaired_clbs r.paired_r0 r.unpaired_r0
        r.paired_plain_cut r.paired_repl_cut
        (gain r.paired_plain_cut r.paired_repl_cut)
        r.unpaired_plain_cut r.unpaired_repl_cut
        (gain r.unpaired_plain_cut r.unpaired_repl_cut))
    rows;
  Format.fprintf fmt
    "(+ = CLB output pairing on, - = off; r_0 = cells eligible for \
     replication; gain = cut reduction from enabling functional \
     replication. Without pairing every cell is single-output, so \
     replication has nothing to work with.)@]"

type multilevel_row = {
  name : string;
  flat_plain : int;
  ml_plain : int;
  flat_repl : int;
  ml_repl : int;
}

let multilevel_init ~rng cfg h =
  let hier = Core.Coarsen.hierarchy ~rng h in
  let st = Core.Fm.random_state rng hier.Core.Coarsen.coarsest in
  ignore (Core.Fm.run cfg st);
  let rec project st_coarse = function
    | [] -> st_coarse
    | (h_fine, map) :: rest ->
        let st_fine =
          Partition_state.create (Hypergraph.Flat.of_hypergraph h_fine)
            ~init_on_b:(fun c ->
              match Partition_state.single_side st_coarse map.(c) with
              | Some Partition_state.B -> true
              | _ -> false)
        in
        ignore (Core.Fm.run cfg st_fine);
        project st_fine rest
  in
  project st hier.Core.Coarsen.levels

let multilevel ?(runs = 5) ?(seed = 7) (e : Suite.entry) =
  let h = Lazy.force e.Suite.hypergraph in
  let total = Hypergraph.total_area h in
  let plain_cfg = Core.Fm.balance_config ~total_area:total () in
  let repl_cfg =
    Core.Fm.balance_config ~replication:(`Functional 0) ~total_area:total ()
  in
  let best init_and_run =
    let best = ref max_int in
    for r = 0 to runs - 1 do
      best := min !best (init_and_run (Netlist.Rng.create (seed + (r * 65537))))
    done;
    !best
  in
  let flat cfg runner rng =
    let st = Core.Fm.random_state rng h in
    let _, cut, _ = runner cfg st in
    cut
  in
  (* The coarse levels never replicate; [runner] refines with [cfg]. *)
  let ml cfg runner rng =
    let st = multilevel_init ~rng plain_cfg h in
    let _, cut, _ = runner cfg st in
    cut
  in
  {
    name = e.Suite.display;
    flat_plain = best (flat plain_cfg Core.Fm.run);
    ml_plain = best (ml plain_cfg Core.Fm.run);
    flat_repl = best (flat repl_cfg Core.Fm.run_staged);
    ml_repl = best (ml repl_cfg Core.Fm.run_staged);
  }

let pp_multilevel fmt rows =
  Format.fprintf fmt "@[<v>%-10s | %9s %9s %6s | %9s %9s@," "Circuit"
    "flat" "multilvl" "red." "flat+rep" "multi+rep";
  List.iter
    (fun r ->
      let red =
        if r.flat_plain = 0 then 0.0
        else
          100.0
          *. float_of_int (r.flat_plain - r.ml_plain)
          /. float_of_int r.flat_plain
      in
      Format.fprintf fmt "%-10s | %9d %9d %5.1f%% | %9d %9d@," r.name
        r.flat_plain r.ml_plain red r.flat_repl r.ml_repl)
    rows;
  Format.fprintf fmt
    "(best equal-halves cut over the multi-start; multilevel = heavy-edge \
     coarsening + projected refinement as the initial solution. Functional \
     replication runs on the finest level in both columns.)@]"
