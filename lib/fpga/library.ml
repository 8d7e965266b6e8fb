type t = Device.t array

let make devices =
  match devices with
  | [] -> invalid_arg "Library.make: empty library"
  | _ ->
      let arr = Array.of_list devices in
      let names = List.map (fun d -> d.Device.name) devices in
      let sorted_names = List.sort_uniq compare names in
      if List.length sorted_names <> List.length names then
        invalid_arg "Library.make: duplicate device names";
      Array.sort
        (fun a b ->
          match compare a.Device.capacity b.Device.capacity with
          | 0 -> compare a.Device.name b.Device.name
          | c -> c)
        arr;
      arr

(* Capacities and terminal counts are the Xilinx XC3000 family data used by
   the paper; prices are reconstructed (see .mli). Utilization windows: the
   paper reports partitions at 70-90% CLB utilization, so feasible uses must
   land in [0.50, 0.95] of capacity except on the smallest device, which
   also mops up remainders. *)
let xc3000 =
  make
    [
      Device.make ~name:"XC3020" ~capacity:64 ~terminals:64 ~price:100.0
        ~util_low:0.0 ~util_high:0.95 ();
      Device.make ~name:"XC3030" ~capacity:100 ~terminals:80 ~price:150.0
        ~util_low:0.50 ~util_high:0.95 ();
      Device.make ~name:"XC3042" ~capacity:144 ~terminals:96 ~price:210.0
        ~util_low:0.50 ~util_high:0.95 ();
      Device.make ~name:"XC3064" ~capacity:224 ~terminals:120 ~price:315.0
        ~util_low:0.50 ~util_high:0.95 ();
      Device.make ~name:"XC3090" ~capacity:320 ~terminals:144 ~price:435.0
        ~util_low:0.50 ~util_high:0.95 ();
    ]

let xc4000 =
  make
    [
      Device.make ~name:"XC4003" ~capacity:100 ~terminals:80 ~price:160.0
        ~util_low:0.0 ~util_high:0.95 ();
      Device.make ~name:"XC4005" ~capacity:196 ~terminals:112 ~price:290.0
        ~util_low:0.50 ~util_high:0.95 ();
      Device.make ~name:"XC4008" ~capacity:324 ~terminals:144 ~price:450.0
        ~util_low:0.50 ~util_high:0.95 ();
      Device.make ~name:"XC4010" ~capacity:400 ~terminals:160 ~price:540.0
        ~util_low:0.50 ~util_high:0.95 ();
      Device.make ~name:"XC4013" ~capacity:576 ~terminals:192 ~price:750.0
        ~util_low:0.50 ~util_high:0.95 ();
    ]

let devices t = Array.to_list t

let find t name =
  Array.find_opt (fun d -> String.equal d.Device.name name) t

(* Deterministic "cheapest first" ordering: price, then capacity, then
   name — the name leg makes the choice independent of construction
   order when two devices tie on both price and capacity. *)
let by_cheapest a b =
  match compare a.Device.price b.Device.price with
  | 0 -> (
      match compare a.Device.capacity b.Device.capacity with
      | 0 -> compare a.Device.name b.Device.name
      | c -> c)
  | c -> c

let cheapest t accepts =
  Array.fold_left
    (fun best d ->
      match best with
      | _ when not (accepts d) -> best
      | Some b when by_cheapest b d <= 0 -> best
      | _ -> Some d)
    None t

let largest t = t.(Array.length t - 1)

let by_efficiency t =
  Array.to_list t
  |> List.sort (fun a b ->
         match compare (Device.price_per_clb a) (Device.price_per_clb b) with
         | 0 -> (
             match compare a.Device.capacity b.Device.capacity with
             | 0 -> compare a.Device.name b.Device.name
             | c -> c)
         | c -> c)

let min_feasible_cost t ~clbs =
  let cheapest =
    Array.fold_left (fun acc d -> min acc d.Device.price) infinity t
  in
  let best_rate =
    Array.fold_left (fun acc d -> min acc (Device.price_per_clb d)) infinity t
  in
  Float.max cheapest (best_rate *. float_of_int clbs)

(* ------------------------------------------------------------------ *)
(* JSON device libraries                                              *)
(* ------------------------------------------------------------------ *)

module J = Obs.Json

let num_field obj k =
  match J.member k obj with
  | Some (J.Int n) -> Some (float_of_int n)
  | Some (J.Float f) -> Some f
  | _ -> None

let axis_map ~who obj k ~default =
  let arr = Array.make Resource.arity default in
  (match J.member k obj with
  | None -> Ok ()
  | Some (J.Obj fields) ->
      List.fold_left
        (fun acc (axis, v) ->
          match acc with
          | Error _ -> acc
          | Ok () -> (
              match Resource.axis_of_name axis with
              | None ->
                  Error (Printf.sprintf "%s: unknown resource axis %S" who axis)
              | Some a -> (
                  match v with
                  | J.Int n -> arr.(a) <- float_of_int n; Ok ()
                  | J.Float f -> arr.(a) <- f; Ok ()
                  | _ ->
                      Error
                        (Printf.sprintf "%s: axis %S must be a number" who axis)
                  )))
        (Ok ()) fields
  | Some _ -> Error (Printf.sprintf "%s: %S must be an object" who k))
  |> Result.map (fun () -> arr)

let device_of_json j =
  match j with
  | J.Obj _ -> (
      let name =
        match J.member "name" j with Some (J.String s) -> s | _ -> ""
      in
      let who = Printf.sprintf "device %S" name in
      if name = "" then Error "device: missing \"name\""
      else
        match num_field j "price" with
        | None -> Error (who ^ ": missing numeric \"price\"")
        | Some price -> (
            match J.member "resources" j with
            | Some _ -> (
                let ( let* ) = Result.bind in
                let* res = axis_map ~who j "resources" ~default:0.0 in
                let* low = axis_map ~who j "res_low" ~default:0.0 in
                let* high = axis_map ~who j "res_high" ~default:1.0 in
                let resources = Array.map int_of_float res in
                try
                  Ok
                    (Device.make_vector ~name ~resources ~price ~res_low:low
                       ~res_high:high ())
                with Invalid_argument msg -> Error msg)
            | None -> (
                (* Scalar (paper Table I) form. *)
                match (num_field j "capacity", num_field j "terminals") with
                | Some c, Some t -> (
                    let util_low =
                      Option.value (num_field j "util_low") ~default:0.0
                    in
                    let util_high =
                      Option.value (num_field j "util_high") ~default:1.0
                    in
                    try
                      Ok
                        (Device.make ~name ~capacity:(int_of_float c)
                           ~terminals:(int_of_float t) ~price ~util_low
                           ~util_high ())
                    with Invalid_argument msg -> Error msg)
                | _ ->
                    Error
                      (who
                     ^ ": need either \"resources\" or \
                        \"capacity\"/\"terminals\""))))
  | _ -> Error "device: expected an object"

let of_json j =
  match J.member "devices" j with
  | Some (J.List entries) -> (
      let rec parse acc = function
        | [] -> Ok (List.rev acc)
        | e :: rest -> (
            match device_of_json e with
            | Ok d -> parse (d :: acc) rest
            | Error msg -> Error msg)
      in
      match parse [] entries with
      | Error _ as e -> e
      | Ok ds -> ( try Ok (make ds) with Invalid_argument msg -> Error msg))
  | _ -> Error "library: missing \"devices\" array"

let load path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error msg -> Error msg
  | text -> (
      match J.of_string text with
      | Error msg -> Error (Printf.sprintf "%s: %s" path msg)
      | Ok j -> of_json j)

let pp fmt t =
  Format.fprintf fmt "@[<v>%-8s %5s %5s %7s %5s %5s %9s@,"
    "Device" "c_i" "t_i" "d_i" "l_i" "u_i" "d_i/c_i";
  Array.iter
    (fun d ->
      Format.fprintf fmt "%-8s %5d %5d %7.0f %5.2f %5.2f %9.2f@,"
        d.Device.name d.Device.capacity d.Device.terminals d.Device.price
        d.Device.util_low d.Device.util_high (Device.price_per_clb d))
    t;
  Format.fprintf fmt "@]"
