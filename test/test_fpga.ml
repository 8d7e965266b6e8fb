(* Tests for the device library and the paper's cost model (eq. 1, eq. 2). *)

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool
let checkf = Alcotest.check (Alcotest.float 1e-9)

open Fpga

let sample = Device.make ~name:"D" ~capacity:100 ~terminals:50 ~price:120.0
    ~util_low:0.5 ~util_high:0.9 ()

let test_device_bounds () =
  checki "min_clbs" 50 (Device.min_clbs sample);
  checki "max_clbs" 90 (Device.max_clbs sample);
  checkf "price per clb" 1.2 (Device.price_per_clb sample);
  checkf "clb util" 0.75 (Device.clb_utilization sample ~clbs:75);
  checkf "iob util" 0.5 (Device.iob_utilization sample ~iobs:25)

let test_device_fits () =
  let fits ?relax_low clbs iobs =
    Objective.fits ?relax_low Objective.paper sample ~demand:[| clbs |] ~iobs
  in
  checkb "in window" true (fits 70 30);
  checkb "below low" false (fits 40 30);
  checkb "below low relaxed" true (fits ~relax_low:true 40 30);
  checkb "above high" false (fits 95 30);
  checkb "too many terminals" false (fits 70 51);
  checkb "zero clbs never fits" false (fits ~relax_low:true 0 0)

let test_device_rejects_bad () =
  let reject f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected rejection"
  in
  reject (fun () -> Device.make ~name:"x" ~capacity:0 ~terminals:1 ~price:1.0 ());
  reject (fun () -> Device.make ~name:"x" ~capacity:1 ~terminals:0 ~price:1.0 ());
  reject (fun () -> Device.make ~name:"x" ~capacity:1 ~terminals:1 ~price:0.0 ());
  reject (fun () ->
      Device.make ~name:"x" ~capacity:1 ~terminals:1 ~price:1.0 ~util_low:0.9
        ~util_high:0.5 ())

let test_xc3000_table1 () =
  (* The real XC3000 capacities and terminal counts of Table I. *)
  let expect = [ ("XC3020", 64, 64); ("XC3030", 100, 80); ("XC3042", 144, 96);
                 ("XC3064", 224, 120); ("XC3090", 320, 144) ] in
  List.iter
    (fun (name, cap, term) ->
      match Library.find Library.xc3000 name with
      | None -> Alcotest.fail ("missing device " ^ name)
      | Some d ->
          checki (name ^ " capacity") cap d.Device.capacity;
          checki (name ^ " terminals") term d.Device.terminals)
    expect;
  (* The reconstructed price curve must make bigger devices cheaper per
     CLB (the economics the paper's cost/interconnect tension relies on). *)
  let rec monotone = function
    | a :: (b :: _ as rest) ->
        checkb "price/CLB decreasing with size" true
          (Device.price_per_clb b < Device.price_per_clb a);
        monotone rest
    | _ -> ()
  in
  monotone (Library.devices Library.xc3000)

let test_library_lookup () =
  checkb "find missing" true (Library.find Library.xc3000 "XC9999" = None);
  let l = Library.largest Library.xc3000 in
  Alcotest.check Alcotest.string "largest" "XC3090" l.Device.name;
  (match Library.by_efficiency Library.xc3000 with
  | first :: _ -> Alcotest.check Alcotest.string "most efficient" "XC3090" first.Device.name
  | [] -> Alcotest.fail "empty library");
  let cheapest ?relax_low clbs iobs =
    Objective.cheapest ?relax_low Objective.paper Library.xc3000
      ~demand:[| clbs |] ~iobs
  in
  (match cheapest 60 60 with
  | Some d -> Alcotest.check Alcotest.string "smallest fitting" "XC3020" d.Device.name
  | None -> Alcotest.fail "expected a fit");
  (* 60 CLBs but 70 terminals: XC3020 runs out of IOBs. *)
  (match cheapest ~relax_low:true 60 70 with
  | Some d -> Alcotest.check Alcotest.string "terminal driven" "XC3030" d.Device.name
  | None -> Alcotest.fail "expected a fit");
  (match cheapest 1000 10 with
  | Some _ -> Alcotest.fail "nothing should fit 1000 CLBs"
  | None -> ())

let test_library_rejects_bad () =
  (match Library.make [] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty library accepted");
  match
    Library.make [ sample; Device.make ~name:"D" ~capacity:10 ~terminals:10 ~price:1.0 () ]
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "duplicate names accepted"

let test_cost_eq1_eq2 () =
  let d1 = Device.make ~name:"A" ~capacity:100 ~terminals:50 ~price:100.0 () in
  let d2 = Device.make ~name:"B" ~capacity:200 ~terminals:80 ~price:150.0 () in
  let placements =
    [
      Cost.place d1 ~clbs:80 ~iobs:25 ();
      Cost.place d1 ~clbs:60 ~iobs:40 ();
      Cost.place d2 ~clbs:150 ~iobs:65 ();
    ]
  in
  let s = Cost.summarize placements in
  checki "k" 3 s.Cost.num_partitions;
  checkf "eq. 1 total cost" 350.0 s.Cost.total_cost;
  (* eq. 2: (25+40+65) / (50+50+80) = 130/180 *)
  checkf "eq. 2 avg IOB util" (130.0 /. 180.0) s.Cost.avg_iob_utilization;
  checkf "avg CLB util" (290.0 /. 400.0) s.Cost.avg_clb_utilization;
  Alcotest.check
    Alcotest.(list (pair string int))
    "device counts" [ ("A", 2); ("B", 1) ] s.Cost.device_counts

(* The one feasibility route: the paper's scalar window (with and without
   the relaxed lower bound) under both modes, and the secondary axes
   consulted only under vector feasibility. [sample]'s FF cap is 200. *)
let test_cost_feasibility () =
  let fits ?relax_low o clbs =
    Objective.fits ?relax_low o sample ~demand:[| clbs |] ~iobs:30
  in
  List.iter
    (fun (o : Objective.t) ->
      checkb (o.Objective.name ^ " in window") true (fits o 70);
      checkb (o.Objective.name ^ " below window") false (fits o 30);
      checkb (o.Objective.name ^ " below window relaxed") true
        (fits ~relax_low:true o 30);
      checkb (o.Objective.name ^ " above window relaxed") false
        (fits ~relax_low:true o 95);
      checkb (o.Objective.name ^ " terminal budget") false
        (Objective.fits o sample ~demand:[| 70 |] ~iobs:51))
    Objective.builtins;
  let demand = [| 70; 201 |] in
  let lib = Library.make [ sample ] in
  checkb "primary ignores FF" true
    (Objective.fits Objective.paper sample ~demand ~iobs:30);
  checkb "vector checks FF" false
    (Objective.fits Objective.multi_personality sample ~demand ~iobs:30);
  checkb "primary cheapest" true
    (Objective.cheapest Objective.paper lib ~demand ~iobs:30 <> None);
  checkb "vector cheapest" true
    (Objective.cheapest Objective.multi_personality lib ~demand ~iobs:30
    = None);
  let primary = Objective.window Objective.paper sample in
  checki "primary window constrains the CLB axis" 1 primary.axes;
  checkb "primary window leaves secondary axes open" true
    (Array.for_all (( = ) max_int)
       (Array.sub primary.hi 1 (Resource.demand_arity - 1)));
  checkb "vector window caps every demand axis" true
    ((Objective.window Objective.multi_personality sample).hi
    = Array.init Resource.demand_arity (Device.axis_max sample))

let test_xc4000 () =
  let l = Library.xc4000 in
  checki "five members" 5 (List.length (Library.devices l));
  (match Library.largest l with
  | d ->
      Alcotest.check Alcotest.string "largest" "XC4013" d.Device.name;
      checki "capacity" 576 d.Device.capacity);
  (* Same economics as the paper's family: bigger devices cheaper per CLB. *)
  let rec monotone = function
    | a :: (b :: _ as rest) ->
        checkb "price/CLB decreasing" true
          (Device.price_per_clb b < Device.price_per_clb a);
        monotone rest
    | _ -> ()
  in
  monotone (Library.devices l)

let test_min_feasible_cost () =
  (* 400 CLBs at the XC3090 rate (435/320) = 543.75; never below the
     cheapest single device. *)
  checkf "fractional bound" 543.75 (Library.min_feasible_cost Library.xc3000 ~clbs:400);
  checkf "floor at cheapest device" 100.0 (Library.min_feasible_cost Library.xc3000 ~clbs:1)

let test_resource_ops () =
  let v = Resource.make ~ffs:4 ~clbs:3 ~iobs:7 () in
  checki "arity" Resource.arity (Array.length v);
  checki "clb" 3 (Resource.get v Resource.clb);
  checki "ff" 4 (Resource.get v Resource.ff);
  checki "bram defaults to 0" 0 (Resource.get v Resource.bram);
  checki "io" 7 (Resource.get v Resource.io);
  (* Cell demands are shorter than arity; missing axes read as 0. *)
  checki "short vector primary" 5 (Resource.get [| 5 |] Resource.clb);
  checki "zero-extended read" 0 (Resource.get [| 5 |] Resource.ff);
  (match Resource.axis_of_name (Resource.axis_name Resource.dsp) with
  | Some a -> checki "axis name roundtrip" Resource.dsp a
  | None -> Alcotest.fail "axis_name not invertible");
  let dst = Resource.zero () in
  Resource.add_into dst v;
  Resource.add_into dst [| 10 |];
  checki "add primary of short src" 13 (Resource.get dst Resource.clb);
  checki "add leaves other axes" 4 (Resource.get dst Resource.ff);
  Resource.sub_into dst [| 10 |];
  checki "sub undoes add" 3 (Resource.get dst Resource.clb);
  checkb "covers itself" true (Resource.covers ~cap:dst v);
  checkb "covers fails on primary" false (Resource.covers ~cap:v [| 4 |]);
  checkb "covers zero-extends cap" false
    (Resource.covers ~cap:[| 9 |] (Resource.make ~clbs:1 ~iobs:1 ()))

let test_make_vector () =
  let d =
    Device.make_vector ~name:"V"
      ~resources:(Resource.make ~ffs:200 ~brams:8 ~dsps:4 ~clbs:100 ~iobs:50 ())
      ~price:120.0
      ~res_low:[| 0.5; 0.0; 0.0; 0.0; 0.0 |]
      ~res_high:[| 0.9; 1.0; 0.5; 1.0; 1.0 |]
      ()
  in
  checki "capacity cached from vector" 100 d.Device.capacity;
  checki "terminals cached from vector" 50 d.Device.terminals;
  checkf "util_low cached" 0.5 d.Device.util_low;
  checkf "util_high cached" 0.9 d.Device.util_high;
  checki "axis_max floor" 4 (Device.axis_max d Resource.bram);
  checki "axis_min ceil" 50 (Device.axis_min d Resource.clb);
  let w = Objective.window Objective.multi_personality d in
  checki "window axes" Resource.demand_arity w.axes;
  checki "window CLB cap" 90 w.hi.(Resource.clb);
  checki "window terminal budget" 50 w.max_iobs;
  let fits ?relax_low dev demand iobs =
    Objective.fits ?relax_low Objective.multi_personality dev ~demand ~iobs
  in
  checkb "vector fit" true (fits d [| 70; 150; 4; 2 |] 30);
  checkb "secondary axis over" false (fits d [| 70; 150; 5; 2 |] 30);
  checkb "short demand fits" true (fits d [| 70 |] 30);
  checkb "primary window applies" false (fits d [| 40 |] 30);
  checkb "relax_low" true (fits ~relax_low:true d [| 40 |] 30);
  checkb "terminal budget applies" false (fits d [| 70 |] 51);
  (* A scalar-built device has no BRAM/DSP, so any such demand is over. *)
  checkb "scalar device rejects bram demand" false
    (fits sample [| 70; 0; 1; 0 |] 30);
  match
    Device.make_vector ~name:"x"
      ~resources:(Resource.make ~clbs:10 ~iobs:10 ())
      ~price:1.0 ~res_low:[| 0.9; 0.; 0.; 0.; 0. |]
      ~res_high:[| 0.5; 1.; 1.; 1.; 1. |] ()
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "inverted per-axis window accepted"

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_objective_costs () =
  let open Objective in
  let d = Device.make ~name:"A" ~capacity:100 ~terminals:50 ~price:123.0 () in
  checkf "paper device cost = price" 123.0 (paper.device_cost d);
  checkf "paper net cost is 0" 0.0 (paper.net_cost ~nets:37);
  checkb "paper total is bitwise the device cost" true
    (Int64.equal
       (Int64.bits_of_float (total_cost paper ~device_cost:350.25 ~cut_nets:99))
       (Int64.bits_of_float 350.25));
  checkb "paper is primary-feasibility" true (paper.feasibility = Primary);
  checkf "multi-personality device cost = price" 123.0
    (multi_personality.device_cost d);
  checkf "multi-personality net cost is 0" 0.0 (multi_personality.net_cost ~nets:37);
  checkb "multi-personality is vector-feasibility" true
    (multi_personality.feasibility = Vector);
  checkf "chiplet device cost = price" 123.0 (chiplet.device_cost d);
  (* 5 crossings at the interposer rate: 5 * 2.0 *)
  checkf "chiplet net cost" (5.0 *. chiplet_net_cost) (chiplet.net_cost ~nets:5);
  checkf "chiplet total" (350.0 +. (12.0 *. chiplet_net_cost))
    (total_cost chiplet ~device_cost:350.0 ~cut_nets:12);
  checkb "chiplet F-M minimises terminals" true
    (chiplet.split_objective = `Terminals && chiplet.refine_objective = `Terminals);
  checki "three builtins" 3 (List.length builtins);
  (match of_name "multi-personality" with
  | Ok o -> Alcotest.check Alcotest.string "lookup by name" "multi-personality" o.name
  | Error e -> Alcotest.fail e);
  match of_name "no-such-objective" with
  | Ok _ -> Alcotest.fail "unknown objective accepted"
  | Error msg ->
      List.iter
        (fun n -> checkb ("error lists " ^ n) true (contains msg n))
        names

let test_cheapest_ties () =
  let mk name cap = Device.make ~name ~capacity:cap ~terminals:100 ~price:50.0 () in
  let a = mk "alpha" 64 and b = mk "beta" 64 and big = mk "gamma" 128 in
  let pick ?(objective = Objective.paper) devs =
    match
      Objective.cheapest objective (Library.make devs) ~demand:[| 32 |] ~iobs:10
    with
    | Some d -> d.Device.name
    | None -> Alcotest.fail "expected a fit"
  in
  Alcotest.check Alcotest.string "capacity breaks a price tie" "alpha"
    (pick [ big; b; a ]);
  Alcotest.check Alcotest.string "name breaks a price+capacity tie" "alpha"
    (pick [ b; a ]);
  Alcotest.check Alcotest.string "construction order irrelevant" "alpha"
    (pick [ a; b; big ]);
  Alcotest.check Alcotest.string "demand path ties identically" "alpha"
    (pick ~objective:Objective.multi_personality [ big; b; a ]);
  (* by_efficiency uses the same deterministic key. *)
  match Library.by_efficiency (Library.make [ b; a; big ]) with
  | first :: second :: _ ->
      Alcotest.check Alcotest.string "cheapest per CLB first" "gamma"
        first.Device.name;
      Alcotest.check Alcotest.string "ties by name" "alpha" second.Device.name
  | _ -> Alcotest.fail "by_efficiency too short"

let write_tmp tag contents =
  let path = Filename.temp_file ("fpgapart_" ^ tag) ".json" in
  let oc = open_out path in
  output_string oc contents;
  close_out oc;
  path

let test_library_load () =
  let path =
    write_tmp "lib"
      {|{ "name": "test", "devices": [
           { "name": "A", "price": 100.0,
             "resources": { "clb": 64, "ff": 128, "io": 64 },
             "res_low":  { "clb": 0.5 },
             "res_high": { "clb": 0.95 } },
           { "name": "B", "capacity": 128, "terminals": 96, "price": 150.0,
             "util_low": 0.25, "util_high": 0.9 } ] }|}
  in
  (match Library.load path with
  | Error e -> Alcotest.fail e
  | Ok lib ->
      (match Library.find lib "A" with
      | Some a ->
          checki "vector clb capacity" 64 a.Device.capacity;
          checki "vector io -> terminals" 64 a.Device.terminals;
          checki "vector ff axis" 128 (Resource.get a.Device.resources Resource.ff);
          checki "res_low -> min_clbs" 32 (Device.min_clbs a);
          checki "res_high -> max_clbs" 60 (Device.max_clbs a)
      | None -> Alcotest.fail "missing device A");
      match Library.find lib "B" with
      | Some b ->
          checki "scalar capacity" 128 b.Device.capacity;
          checkf "scalar util_low" 0.25 b.Device.util_low
      | None -> Alcotest.fail "missing device B");
  (match
     Library.load
       (write_tmp "bad"
          {|{ "devices": [ { "name": "A", "price": 1.0,
                             "resources": { "clb": 4 } } ] }|})
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "device without io capacity accepted");
  (match
     Library.load
       (write_tmp "dup"
          {|{ "devices": [
               { "name": "A", "capacity": 4, "terminals": 4, "price": 1.0 },
               { "name": "A", "capacity": 8, "terminals": 8, "price": 2.0 } ] }|})
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "duplicate names accepted");
  match Library.load "/nonexistent/definitely-missing.json" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing file accepted"

(* The qcheck half of the equivalence satellite: on random scalar
   libraries, the vector-feasibility path fed 1-ary demands must make
   exactly the scalar path's decisions, device by device and library
   query by library query. (The whole-partitioner half is the golden
   compare in test_contracts.ml.) *)
let test_scalar_vector_equivalence =
  QCheck.Test.make ~name:"1-ary vector path = scalar path" ~count:300
    QCheck.(pair small_int (pair (int_range 0 400) (int_range 0 250)))
    (fun (seed, (clbs, iobs)) ->
      let rng = Random.State.make [| seed; 0x5eed |] in
      let n = 1 + Random.State.int rng 5 in
      let devs =
        List.init n (fun i ->
            Device.make
              ~name:(Printf.sprintf "D%d" i)
              ~capacity:(1 + Random.State.int rng 300)
              ~terminals:(1 + Random.State.int rng 200)
              ~price:(float_of_int (1 + Random.State.int rng 500))
              ~util_low:(float_of_int (Random.State.int rng 50) /. 100.0)
              ~util_high:(float_of_int (50 + Random.State.int rng 51) /. 100.0)
              ())
      in
      let lib = Library.make devs in
      let relax_low = Random.State.bool rng in
      List.iter
        (fun d ->
          let fits o = Objective.fits ~relax_low o d ~demand:[| clbs |] ~iobs in
          if fits Objective.paper <> fits Objective.multi_personality then
            QCheck.Test.fail_reportf "fits disagrees on %s for clbs=%d iobs=%d"
              d.Device.name clbs iobs)
        devs;
      let name = function Some (d : Device.t) -> d.Device.name | None -> "-" in
      let cheapest o = Objective.cheapest ~relax_low o lib ~demand:[| clbs |] ~iobs in
      String.equal
        (name (cheapest Objective.paper))
        (name (cheapest Objective.multi_personality)))

(* Windows on vector devices: random per-axis utilization windows,
   demands on every demand axis, both [relax_low] values and every builtin
   objective. [Objective.fits] and [Objective.cheapest] must agree with a
   per-axis reference written out here: the terminal budget, at least one
   CLB, and [ceil (low * r) <= x <= floor (high * r)] on the CLB axis alone
   under primary feasibility and on every demand axis under vector
   feasibility (the lower bound dropped when relaxed); the cheapest fit by
   price, then capacity, then name. *)
let test_vector_windows =
  QCheck.Test.make ~name:"windows on vector devices = per-axis reference"
    ~count:300 QCheck.small_int (fun seed ->
      let rng = Random.State.make [| seed; 0x3d0 |] in
      let int lo hi = lo + Random.State.int rng (hi - lo + 1) in
      let frac lo hi = float_of_int (int lo hi) /. 100.0 in
      (* Few capacities and prices, so ties on both are common. *)
      let devs =
        List.init (int 1 6) (fun i ->
            let res_low = Array.init Resource.arity (fun _ -> frac 0 60) in
            let res_high = Array.map (fun l -> Float.max l (frac 40 100)) res_low in
            Device.make_vector
              ~name:(Printf.sprintf "V%d" i)
              ~resources:
                (Resource.make ~clbs:(8 * int 2 4) ~ffs:(int 0 64) ~brams:(int 0 8)
                   ~dsps:(int 0 8) ~iobs:(int 1 30) ())
              ~price:(float_of_int (100 * int 1 2))
              ~res_low ~res_high ())
      in
      let lib = Library.make devs in
      let demand =
        Array.init Resource.demand_arity (fun a -> int 0 (if a = 0 then 32 else 8))
      in
      let iobs = int 0 30 in
      let reference (o : Objective.t) ~relax_low (d : Device.t) =
        let axes =
          match o.feasibility with
          | Objective.Primary -> 1
          | Objective.Vector -> Resource.demand_arity
        in
        let within a =
          let r = float_of_int d.resources.(a) and x = demand.(a) in
          x <= int_of_float (floor (d.res_high.(a) *. r))
          && (relax_low || x >= int_of_float (ceil (d.res_low.(a) *. r)))
        in
        iobs <= d.terminals
        && demand.(Resource.clb) >= 1
        && List.for_all within (List.init axes Fun.id)
      in
      let by_price (a : Device.t) (b : Device.t) =
        compare (a.price, a.capacity, a.name) (b.price, b.capacity, b.name)
      in
      let name = function Some (d : Device.t) -> d.name | None -> "-" in
      List.for_all
        (fun o ->
          List.for_all
            (fun relax_low ->
              let fits = List.filter (reference o ~relax_low) devs in
              List.iter
                (fun d ->
                  if
                    Objective.fits ~relax_low o d ~demand ~iobs
                    <> List.memq d fits
                  then
                    QCheck.Test.fail_reportf "%s: fits disagrees on %s"
                      o.Objective.name d.Device.name)
                devs;
              let expected =
                match List.sort by_price fits with [] -> None | d :: _ -> Some d
              in
              String.equal (name expected)
                (name (Objective.cheapest ~relax_low o lib ~demand ~iobs)))
            [ false; true ])
        Objective.builtins)

let test_paper_total_bitwise =
  QCheck.Test.make ~name:"paper total_cost bitwise-preserves device cost"
    ~count:500
    QCheck.(pair (int_range 0 1_000_000) (int_range 0 10_000))
    (fun (a, nets) ->
      let cost = float_of_int a /. 7.0 in
      Int64.equal
        (Int64.bits_of_float
           (Objective.total_cost Objective.paper ~device_cost:cost ~cut_nets:nets))
        (Int64.bits_of_float cost))

let qc t = QCheck_alcotest.to_alcotest t

let () =
  Alcotest.run "fpga"
    [
      ( "device",
        [
          Alcotest.test_case "utilization window" `Quick test_device_bounds;
          Alcotest.test_case "fits" `Quick test_device_fits;
          Alcotest.test_case "rejects malformed" `Quick test_device_rejects_bad;
          Alcotest.test_case "vector devices" `Quick test_make_vector;
        ] );
      ( "resource",
        [ Alcotest.test_case "vector operations" `Quick test_resource_ops ] );
      ( "library",
        [
          Alcotest.test_case "Table I data" `Quick test_xc3000_table1;
          Alcotest.test_case "lookup and ordering" `Quick test_library_lookup;
          Alcotest.test_case "rejects malformed" `Quick test_library_rejects_bad;
          Alcotest.test_case "xc4000 family" `Quick test_xc4000;
          Alcotest.test_case "fractional lower bound" `Quick test_min_feasible_cost;
          Alcotest.test_case "deterministic tie-breaking" `Quick
            test_cheapest_ties;
          Alcotest.test_case "JSON loading" `Quick test_library_load;
        ] );
      ( "cost",
        [
          Alcotest.test_case "eq. 1 and eq. 2" `Quick test_cost_eq1_eq2;
          Alcotest.test_case "feasibility" `Quick test_cost_feasibility;
        ] );
      ( "objective",
        [
          Alcotest.test_case "hand-computed costs" `Quick test_objective_costs;
          qc test_scalar_vector_equivalence;
          qc test_vector_windows;
          qc test_paper_total_bitwise;
        ] );
    ]
