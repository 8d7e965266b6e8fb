include Kway_types

let partition ?(obs = Obs.noop) ?(options = Options.default) ~library hg =
  match options.strategy with
  | Flat -> Split.flat_partition ~budget:flat_budget ~obs ~options ~library hg
  | Multilevel _ -> Vcycle.multilevel_run ~obs ~options ~library hg

include Warm

let project_parts = Tally.project_parts
let check = Verifier.check

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
