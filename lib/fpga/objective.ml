type fm_objective = [ `Cut | `Terminals ]
type feasibility = Primary | Vector

type t = {
  name : string;
  description : string;
  device_cost : Device.t -> float;
  net_cost : nets:int -> float;
  split_objective : fm_objective;
  refine_objective : fm_objective;
  feasibility : feasibility;
}

let paper =
  {
    name = "paper";
    description =
      "total device cost (eq. 1), avg IOB utilization tie-break (eq. 2)";
    device_cost = (fun d -> d.Device.price);
    net_cost = (fun ~nets:_ -> 0.0);
    split_objective = `Cut;
    refine_objective = `Terminals;
    feasibility = Primary;
  }

let multi_personality =
  {
    name = "multi-personality";
    description =
      "Gregerson heterogeneous resources: per-axis demand (CLB/FF/BRAM/DSP) \
       must fit each device's utilization windows";
    device_cost = (fun d -> d.Device.price);
    net_cost = (fun ~nets:_ -> 0.0);
    split_objective = `Cut;
    refine_objective = `Terminals;
    feasibility = Vector;
  }

let chiplet_net_cost = 2.0

let chiplet =
  {
    name = "chiplet";
    description =
      "ChipletPart-style 2.5D: cut signals price in interposer cost, both \
       F-M stages minimise crossings";
    device_cost = (fun d -> d.Device.price);
    net_cost = (fun ~nets -> chiplet_net_cost *. float_of_int nets);
    split_objective = `Terminals;
    refine_objective = `Terminals;
    feasibility = Primary;
  }

let builtins = [ paper; multi_personality; chiplet ]
let names = List.map (fun o -> o.name) builtins

let of_name name =
  match List.find_opt (fun o -> String.equal o.name name) builtins with
  | Some o -> Ok o
  | None ->
      Error
        (Printf.sprintf "unknown objective %S (choose from: %s)" name
           (String.concat ", " names))

let fits ?relax_low t dev ~demand ~iobs =
  match t.feasibility with
  | Primary ->
      Device.fits ?relax_low dev ~clbs:(Resource.get demand Resource.clb) ~iobs
  | Vector -> Device.fits_demand ?relax_low dev ~demand ~iobs

let cheapest ?relax_low t library ~demand ~iobs =
  match t.feasibility with
  | Primary ->
      Library.smallest_fitting ?relax_low library
        ~clbs:(Resource.get demand Resource.clb) ~iobs
  | Vector -> Library.smallest_fitting_demand ?relax_low library ~demand ~iobs

let res_max t dev =
  match t.feasibility with
  | Primary -> [||]
  | Vector -> Device.demand_caps dev

let total_cost t ~device_cost ~cut_nets =
  device_cost +. t.net_cost ~nets:cut_nets

let pp fmt t = Format.fprintf fmt "%s (%s)" t.name t.description
