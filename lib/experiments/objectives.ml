(* Per-objective ablation: the same circuit partitioned under each
   builtin cost objective, tabulating what the objective changed. *)

type row = {
  circuit : string;
  objective : string;
  outcome : (Core.Kway.result, string) result;
}

let run ?(runs = 5) ?(seed = 1) (e : Suite.entry) =
  let hg = Lazy.force e.Suite.hypergraph in
  List.map
    (fun objective ->
      let options = Core.Kway.Options.make ~runs ~seed ~objective () in
      let outcome =
        Core.Kway.partition ~options ~library:Fpga.Library.xc3000 hg
      in
      { circuit = e.Suite.name; objective = objective.Fpga.Objective.name;
        outcome })
    Fpga.Objective.builtins

let objective_total name (r : Core.Kway.result) =
  match Fpga.Objective.of_name name with
  | Error _ -> r.Core.Kway.summary.Fpga.Cost.total_cost
  | Ok obj ->
      Fpga.Objective.total_cost obj
        ~device_cost:r.Core.Kway.summary.Fpga.Cost.total_cost
        ~cut_nets:r.Core.Kway.summary.Fpga.Cost.total_iobs

let pp fmt rows =
  Format.fprintf fmt "@[<v>objective ablation@,";
  Format.fprintf fmt "  %-8s %-18s %5s %10s %10s %6s@," "circuit" "objective"
    "parts" "devices" "objective" "IOBs";
  List.iter
    (fun row ->
      match row.outcome with
      | Error msg ->
          Format.fprintf fmt "  %-8s %-18s (%s)@," row.circuit row.objective
            msg
      | Ok r ->
          let s = r.Core.Kway.summary in
          Format.fprintf fmt "  %-8s %-18s %5d %10.1f %10.1f %6d@," row.circuit
            row.objective s.Fpga.Cost.num_partitions s.Fpga.Cost.total_cost
            (objective_total row.objective r)
            s.Fpga.Cost.total_iobs)
    rows;
  Format.fprintf fmt "@]"
