(* Shared fixtures for the test suites. *)

let spec ?(area = 1) ?(demand = [||]) name inputs outputs supports =
  {
    Hypergraph.s_name = name;
    s_area = area;
    s_demand = demand;
    s_inputs = Array.of_list inputs;
    s_outputs = Array.of_list outputs;
    s_supports = Array.of_list supports;
  }

(* A deterministic random hypergraph: [n_cells] cells, each with 1-3
   outputs and 1-4 inputs drawn from earlier nets; a handful of driverless
   "primary" nets are external. *)
let random_hypergraph seed n_cells =
  let rng = Netlist.Rng.create seed in
  let next_net = ref 0 in
  let fresh_net () =
    let n = !next_net in
    incr next_net;
    n
  in
  let n_primary = 4 + Netlist.Rng.int rng 4 in
  let primary = List.init n_primary (fun _ -> fresh_net ()) in
  let available = ref (Array.of_list primary) in
  let specs = ref [] in
  for k = 0 to n_cells - 1 do
    let n_out = 1 + Netlist.Rng.int rng 3 in
    let n_in = 1 + Netlist.Rng.int rng 4 in
    (* Distinct input nets per cell, as real mapped CLBs have (the paper's
       per-pin cut vectors assume it). *)
    let picks = Netlist.Rng.sample rng n_in (Array.length !available) in
    let inputs = Array.map (fun k -> !available.(k)) picks in
    let outputs = Array.init n_out (fun _ -> fresh_net ()) in
    let supports =
      Array.init n_out (fun _ ->
          let m = ref Bitvec.empty in
          for i = 0 to n_in - 1 do
            if Netlist.Rng.bool rng then m := Bitvec.add i !m
          done;
          !m)
    in
    for o = 0 to n_out - 1 do
      if Bitvec.is_empty supports.(o) then
        supports.(o) <- Bitvec.singleton (Netlist.Rng.int rng n_in)
    done;
    for i = 0 to n_in - 1 do
      if not (Array.exists (fun s -> Bitvec.mem i s) supports) then begin
        let o = Netlist.Rng.int rng n_out in
        supports.(o) <- Bitvec.add i supports.(o)
      end
    done;
    specs :=
      spec (Printf.sprintf "c%d" k) (Array.to_list inputs)
        (Array.to_list outputs) (Array.to_list supports)
      :: !specs;
    available := Array.append !available outputs
  done;
  Hypergraph.create ~num_nets:!next_net ~external_nets:primary (List.rev !specs)

let random_mask rng full =
  Bitvec.fold
    (fun i acc -> if Netlist.Rng.bool rng then Bitvec.add i acc else acc)
    full Bitvec.empty

(* The Fig. 4 fixture (see test_hypergraph.ml for the derivation): cell M
   (id 0) with 5 inputs and outputs X1, X2; expected gains are
   G_m = -1, G_tr = -2, G_r = +2 with X2 (output index 1) migrating. *)
let fig4_hypergraph () =
  let no_input_cell name out = spec name [] [ out ] [ Bitvec.empty ] in
  Hypergraph.create ~num_nets:9 ~external_nets:[ 7; 8 ]
    [
      spec "M" [ 0; 1; 2; 3; 4 ] [ 5; 6 ]
        [ Bitvec.of_list [ 0; 2; 3; 4 ]; Bitvec.of_list [ 1 ] ];
      no_input_cell "D1" 0;
      no_input_cell "D2" 1;
      no_input_cell "D3" 2;
      no_input_cell "D4" 3;
      no_input_cell "D5" 4;
      spec "RX1" [ 5 ] [ 7 ] [ Bitvec.of_list [ 0 ] ];
      spec "RX2" [ 6 ] [ 8 ] [ Bitvec.of_list [ 0 ] ];
    ]

let fig4_state () =
  let h = fig4_hypergraph () in
  let on_b = function 1 | 2 | 7 -> true | _ -> false in
  (h, Partition_state.create h ~init_on_b:on_b)

(* Words allocated while [f ()] runs, less what an empty measurement
   reads. [Gc.minor_words] is current at every call (unlike
   [Gc.quick_stat], which only advances at a collection); [Gc.counters]
   adds what went straight to the major heap. *)
let words_during f =
  let measure f =
    let _, p0, j0 = Gc.counters () in
    let m0 = Gc.minor_words () in
    f ();
    let m1 = Gc.minor_words () in
    let _, p1, j1 = Gc.counters () in
    m1 -. m0 +. (j1 -. j0) -. (p1 -. p0)
  in
  measure f -. measure ignore
