type fm_objective = [ `Cut | `Terminals ]
type feasibility = Primary | Vector

type t = {
  name : string;
  description : string;
  net_price : float;
  split_objective : fm_objective;
  refine_objective : fm_objective;
  feasibility : feasibility;
}

let paper =
  {
    name = "paper";
    description =
      "total device cost (eq. 1), avg IOB utilization tie-break (eq. 2)";
    net_price = 0.0;
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
    net_price = 0.0;
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
    net_price = chiplet_net_cost;
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

type window = { lo : int array; hi : int array; max_iobs : int; axes : int }

let window ?(relax_low = false) t dev =
  let axes =
    match t.feasibility with Primary -> 1 | Vector -> Resource.demand_arity
  in
  let lo a = if a >= axes || relax_low then 0 else Device.axis_min dev a in
  {
    lo =
      Array.init Resource.demand_arity (fun a ->
          if a = Resource.clb then max 1 (lo a) else lo a);
    hi =
      Array.init Resource.demand_arity (fun a ->
          if a < axes then Device.axis_max dev a else max_int);
    max_iobs = dev.Device.terminals;
    axes;
  }

let narrow ~hi w =
  let hi' = Array.copy w.hi in
  hi'.(Resource.clb) <- min hi w.hi.(Resource.clb);
  { w with hi = hi' }

let fits ?relax_low t dev ~demand ~iobs =
  let w = window ?relax_low t dev in
  let rec within a =
    a >= w.axes
    ||
    let x = Resource.get demand a in
    w.lo.(a) <= x && x <= w.hi.(a) && within (a + 1)
  in
  iobs <= w.max_iobs && within 0

let cheapest ?relax_low t library ~demand ~iobs =
  Library.cheapest library (fun d -> fits ?relax_low t d ~demand ~iobs)

(* [a]'s window contains [b]'s on every axis the objective constrains
   and on terminals, at a price no higher. *)
let dominates t (a : Device.t) (b : Device.t) =
  a.Device.price <= b.Device.price
  &&
  let wa = window t a and wb = window t b in
  let rec within x =
    x >= wa.axes
    || (wa.lo.(x) <= wb.lo.(x) && wb.hi.(x) <= wa.hi.(x) && within (x + 1))
  in
  wb.max_iobs <= wa.max_iobs && within 0

let undominated t library =
  let devices = Library.devices library in
  let dropped_by (b : Device.t) =
    List.find_opt
      (fun (a : Device.t) ->
        a.Device.name <> b.Device.name
        && dominates t a b
        && ((not (dominates t b a)) || a.Device.name < b.Device.name))
      devices
  in
  let dropped =
    List.filter_map
      (fun b -> Option.map (fun a -> (b, a)) (dropped_by b))
      devices
  in
  if dropped = [] then (library, [])
  else
    ( Library.make
        (List.filter
           (fun (d : Device.t) ->
             not (List.exists (fun ((b : Device.t), _) -> b == d) dropped))
           devices),
      dropped )

let total_cost t ~device_cost ~cut_nets =
  device_cost +. (t.net_price *. float_of_int cut_nets)
