type placement = {
  device : Device.t;
  clbs : int;
  iobs : int;
  used : int array;
}

let place device ~used ~clbs ~iobs =
  if Resource.get used Resource.clb <> clbs then
    invalid_arg "Cost.place: used.(clb) must equal clbs";
  { device; clbs; iobs; used }

type summary = {
  num_partitions : int;
  total_cost : float;
  avg_iob_utilization : float;
  avg_clb_utilization : float;
  total_clbs : int;
  total_iobs : int;
  device_counts : (string * int) list;
  resource_util : (string * float) list;
}

let summarize placements =
  if placements = [] then invalid_arg "Cost.summarize: no placements";
  let total_cost =
    List.fold_left (fun acc p -> acc +. p.device.Device.price) 0.0 placements
  in
  let total_clbs = List.fold_left (fun acc p -> acc + p.clbs) 0 placements in
  let total_iobs = List.fold_left (fun acc p -> acc + p.iobs) 0 placements in
  let cap_clbs =
    List.fold_left (fun acc p -> acc + p.device.Device.capacity) 0 placements
  in
  let cap_iobs =
    List.fold_left (fun acc p -> acc + p.device.Device.terminals) 0 placements
  in
  let used_axes = Array.make Resource.arity 0 in
  let cap_axes = Array.make Resource.arity 0 in
  List.iter
    (fun p ->
      used_axes.(Resource.clb) <- used_axes.(Resource.clb) + p.clbs;
      used_axes.(Resource.io) <- used_axes.(Resource.io) + p.iobs;
      for a = 1 to Resource.demand_arity - 1 do
        used_axes.(a) <- used_axes.(a) + Resource.get p.used a
      done;
      Resource.add_into cap_axes p.device.Device.resources)
    placements;
  let counts = Hashtbl.create 8 in
  let order = ref [] in
  List.iter
    (fun p ->
      let name = p.device.Device.name in
      match Hashtbl.find_opt counts name with
      | Some n -> Hashtbl.replace counts name (n + 1)
      | None ->
          Hashtbl.add counts name 1;
          order := name :: !order)
    placements;
  {
    num_partitions = List.length placements;
    total_cost;
    avg_iob_utilization = float_of_int total_iobs /. float_of_int cap_iobs;
    avg_clb_utilization = float_of_int total_clbs /. float_of_int cap_clbs;
    total_clbs;
    total_iobs;
    device_counts =
      List.rev_map (fun name -> (name, Hashtbl.find counts name)) !order;
    resource_util =
      List.init Resource.arity (fun a ->
          ( Resource.axis_name a ^ "_util",
            if cap_axes.(a) = 0 then 0.0
            else float_of_int used_axes.(a) /. float_of_int cap_axes.(a) ));
  }

let pp_summary fmt s =
  let devices =
    s.device_counts
    |> List.map (fun (name, n) -> Printf.sprintf "%dx %s" n name)
    |> String.concat ", "
  in
  Format.fprintf fmt
    "k=%d, cost $%.0f, CLB util %.0f%%, IOB util %.0f%% (%s)"
    s.num_partitions s.total_cost
    (100.0 *. s.avg_clb_utilization)
    (100.0 *. s.avg_iob_utilization)
    devices
