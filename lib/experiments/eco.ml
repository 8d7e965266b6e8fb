type report = {
  circuit : string;
  seed : int;
  frac : float;
  edits : int;
  base_cells : int;
  edited_cells : int;
  dirty_cells : int;
  seeded_cells : int;
  changed_nets : int;
  cold_wall_secs : float;
  warm_wall_secs : float;
  speedup : float;
  cold_cost : float;
  warm_cost : float;
  cost_ratio : float;
  warm_feasible : bool;
}

let run ?(options = Core.Kway.Options.default)
    ?(library = Fpga.Library.xc3000) ?(seed = 7) ?(frac = 0.01)
    (e : Suite.entry) =
  let ( let* ) = Result.bind in
  (* The base must be in canonical node order, like the service's cached
     basis: Delta.apply rebuilds canonically, so mapping a raw-order base
     against a canonical-order edit would repack CLBs wholesale and mark
     every net changed. The empty delta IS the canonicalisation. *)
  let* base_circuit =
    Result.map_error Netlist.Delta.error_to_string
      (Netlist.Delta.apply (Lazy.force e.Suite.circuit) [])
  in
  let base_hg = Techmap.Mapper.to_hypergraph (Techmap.Mapper.map base_circuit) in
  let delta = Netlist.Delta.random ~seed ~frac base_circuit in
  let* edited_circuit =
    Result.map_error Netlist.Delta.error_to_string
      (Netlist.Delta.apply base_circuit delta)
  in
  let edited_hg = Techmap.Mapper.to_hypergraph (Techmap.Mapper.map edited_circuit) in
  (* Cold run on the edited circuit, timed. *)
  let w0 = Obs.Clock.wall () in
  let* cold = Core.Kway.partition ~options ~library edited_hg in
  let cold_wall_secs = Obs.Clock.wall () -. w0 in
  (* Base partition (untimed context: a resubmit caller amortised this
     over the original submit), projected onto the edit. *)
  let* base = Core.Kway.partition ~options ~library base_hg in
  let warm, proj =
    Core.Kway.project_warm ~base:base_hg ~base_parts:base.Core.Kway.parts
      edited_hg
  in
  let w1 = Obs.Clock.wall () in
  let* warm_r = Core.Kway.warm_start ~options ~library ~warm edited_hg in
  let warm_wall_secs = Obs.Clock.wall () -. w1 in
  let* () =
    Result.map_error
      (fun msg -> "warm result unsound: " ^ msg)
      (Core.Kway.check ~objective:options.Core.Kway.objective edited_hg warm_r)
  in
  let cold_cost = cold.Core.Kway.summary.Fpga.Cost.total_cost in
  let warm_cost = warm_r.Core.Kway.summary.Fpga.Cost.total_cost in
  let dirty_cells =
    Array.fold_left (fun a d -> if d then a + 1 else a) 0 proj.Projection.dirty
  in
  Ok
    {
      circuit = e.Suite.name;
      seed;
      frac;
      edits = List.length delta;
      base_cells = Hypergraph.num_cells base_hg;
      edited_cells = Hypergraph.num_cells edited_hg;
      dirty_cells;
      seeded_cells = proj.Projection.added;
      changed_nets = proj.Projection.changed_nets;
      cold_wall_secs;
      warm_wall_secs;
      speedup = cold_wall_secs /. Float.max 1e-9 warm_wall_secs;
      cold_cost;
      warm_cost;
      cost_ratio = warm_cost /. Float.max 1e-9 cold_cost;
      warm_feasible = true;
    }

let to_json (r : report) =
  let module J = Obs.Json in
  J.Obj
    [
      ("circuit", J.String r.circuit);
      ("seed", J.Int r.seed);
      ("frac", J.Float r.frac);
      ("edits", J.Int r.edits);
      ("base_cells", J.Int r.base_cells);
      ("edited_cells", J.Int r.edited_cells);
      ("dirty_cells", J.Int r.dirty_cells);
      ("seeded_cells", J.Int r.seeded_cells);
      ("changed_nets", J.Int r.changed_nets);
      ("cold_wall_secs", J.Float r.cold_wall_secs);
      ("warm_wall_secs", J.Float r.warm_wall_secs);
      ("speedup", J.Float r.speedup);
      ("cold_cost", J.Float r.cold_cost);
      ("warm_cost", J.Float r.warm_cost);
      ("cost_ratio", J.Float r.cost_ratio);
      ("warm_feasible", J.Bool r.warm_feasible);
    ]
