type t = {
  name : string;
  capacity : int;
  terminals : int;
  price : float;
  util_low : float;
  util_high : float;
  resources : Resource.t;
  res_low : float array;
  res_high : float array;
}

let check_windows ~who low high =
  for a = 0 to Resource.arity - 1 do
    if not (0.0 <= low.(a) && low.(a) <= high.(a) && high.(a) <= 1.0) then
      invalid_arg (who ^ ": need 0 <= res_low <= res_high <= 1 on every axis")
  done

let make_vector ~name ~resources ~price ?res_low ?res_high () =
  if Array.length resources <> Resource.arity then
    invalid_arg "Device.make_vector: resources must have length Resource.arity";
  if resources.(Resource.clb) <= 0 then
    invalid_arg "Device.make_vector: CLB capacity must be positive";
  if resources.(Resource.io) <= 0 then
    invalid_arg "Device.make_vector: IO capacity must be positive";
  Array.iter
    (fun x ->
      if x < 0 then
        invalid_arg "Device.make_vector: capacities must be non-negative")
    resources;
  if price <= 0.0 then invalid_arg "Device.make_vector: price must be positive";
  let res_low =
    match res_low with
    | None -> Array.make Resource.arity 0.0
    | Some l ->
        if Array.length l <> Resource.arity then
          invalid_arg "Device.make_vector: res_low must have length Resource.arity";
        Array.copy l
  in
  let res_high =
    match res_high with
    | None -> Array.make Resource.arity 1.0
    | Some h ->
        if Array.length h <> Resource.arity then
          invalid_arg "Device.make_vector: res_high must have length Resource.arity";
        Array.copy h
  in
  check_windows ~who:"Device.make_vector" res_low res_high;
  {
    name;
    capacity = resources.(Resource.clb);
    terminals = resources.(Resource.io);
    price;
    util_low = res_low.(Resource.clb);
    util_high = res_high.(Resource.clb);
    resources = Array.copy resources;
    res_low;
    res_high;
  }

let make ~name ~capacity ~terminals ~price ?(util_low = 0.0) ?(util_high = 1.0)
    () =
  if capacity <= 0 then invalid_arg "Device.make: capacity must be positive";
  if terminals <= 0 then invalid_arg "Device.make: terminals must be positive";
  if price <= 0.0 then invalid_arg "Device.make: price must be positive";
  if not (0.0 <= util_low && util_low <= util_high && util_high <= 1.0) then
    invalid_arg "Device.make: need 0 <= util_low <= util_high <= 1";
  (* XC3000 shape: 2 flip-flops per CLB; no BRAM/DSP. Secondary windows
     [0, 1] keep these axes inert under the paper's scalar model. *)
  let resources = Array.make Resource.arity 0 in
  resources.(Resource.clb) <- capacity;
  resources.(Resource.ff) <- 2 * capacity;
  resources.(Resource.io) <- terminals;
  let res_low = Array.make Resource.arity 0.0 in
  let res_high = Array.make Resource.arity 1.0 in
  res_low.(Resource.clb) <- util_low;
  res_high.(Resource.clb) <- util_high;
  { name; capacity; terminals; price; util_low; util_high;
    resources; res_low; res_high }

let min_clbs d = int_of_float (ceil (d.util_low *. float_of_int d.capacity))
let max_clbs d = int_of_float (floor (d.util_high *. float_of_int d.capacity))

let axis_min d a =
  int_of_float (ceil (d.res_low.(a) *. float_of_int d.resources.(a)))

let axis_max d a =
  int_of_float (floor (d.res_high.(a) *. float_of_int d.resources.(a)))

let price_per_clb d = d.price /. float_of_int d.capacity

let clb_utilization d ~clbs = float_of_int clbs /. float_of_int d.capacity
let iob_utilization d ~iobs = float_of_int iobs /. float_of_int d.terminals

