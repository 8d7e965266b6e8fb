(* Tests for the hypergraph substrate: bit vectors, hypergraph construction
   and induction, and the replication-aware partition state. *)

let check = Alcotest.check
let checki = Alcotest.check Alcotest.int
let flat = Test_util.flat
let checkb = Alcotest.check Alcotest.bool

(* ------------------------------------------------------------------ *)
(* Bitvec                                                             *)
(* ------------------------------------------------------------------ *)

let test_bitvec_basics () =
  checki "full 3" 0b111 (Bitvec.full 3);
  checki "full 0" 0 (Bitvec.full 0);
  checkb "mem" true (Bitvec.mem 1 0b010);
  checkb "not mem" false (Bitvec.mem 0 0b010);
  checki "add" 0b011 (Bitvec.add 0 0b010);
  checki "remove" 0b010 (Bitvec.remove 0 0b011);
  checki "union" 0b111 (Bitvec.union 0b101 0b010);
  checki "inter" 0b100 (Bitvec.inter 0b101 0b110);
  checki "diff" 0b001 (Bitvec.diff 0b101 0b100);
  checki "complement" 0b010 (Bitvec.complement 3 0b101);
  checki "norm" 2 (Bitvec.norm 0b101);
  checki "norm big" 62 (Bitvec.norm (Bitvec.full 62));
  checkb "subset" true (Bitvec.subset 0b100 0b101);
  checkb "not subset" false (Bitvec.subset 0b011 0b101)

let test_bitvec_iter_order () =
  let acc = ref [] in
  Bitvec.iter (fun i -> acc := i :: !acc) 0b10110;
  check Alcotest.(list int) "ascending" [ 1; 2; 4 ] (List.rev !acc);
  check Alcotest.(list int) "to_list" [ 1; 2; 4 ] (Bitvec.to_list 0b10110);
  checki "of_list" 0b10110 (Bitvec.of_list [ 4; 1; 2 ])

let test_bitvec_paper_example () =
  (* Fig. 2 of the paper: A_X1 = [1 1 1 1 0], A_X2 = [0 0 0 1 1].
     psi = |~A_X2 & A_X1| + |~A_X1 & A_X2| = 3 + 1 = 4. *)
  let a_x1 = Bitvec.of_list [ 0; 1; 2; 3 ] in
  let a_x2 = Bitvec.of_list [ 3; 4 ] in
  let w = 5 in
  let only1 = Bitvec.inter a_x1 (Bitvec.complement w a_x2) in
  let only2 = Bitvec.inter a_x2 (Bitvec.complement w a_x1) in
  checki "psi of Fig. 2" 4 (Bitvec.norm only1 + Bitvec.norm only2)

let qcheck_bitvec_complement_involution =
  QCheck.Test.make ~name:"complement is an involution" ~count:500
    QCheck.(pair (int_range 0 20) (int_bound ((1 lsl 20) - 1)))
    (fun (w, raw) ->
      let v = Bitvec.inter raw (Bitvec.full w) in
      Bitvec.equal v (Bitvec.complement w (Bitvec.complement w v)))

let qcheck_bitvec_norm_additive =
  QCheck.Test.make ~name:"norm additive over disjoint union" ~count:500
    QCheck.(pair (int_bound ((1 lsl 16) - 1)) (int_bound ((1 lsl 16) - 1)))
    (fun (a, b) ->
      let b = Bitvec.diff b a in
      Bitvec.norm (Bitvec.union a b) = Bitvec.norm a + Bitvec.norm b)

(* ------------------------------------------------------------------ *)
(* Hypergraph fixtures                                                *)
(* ------------------------------------------------------------------ *)

let spec = Test_util.spec

(* The two-output cell of Fig. 1: inputs a b c (nets 0 1 2), outputs X Y
   (nets 3 4); X depends on {a,b}, Y on {b,c}. Plus consumer cells so nets
   are driven/read meaningfully. *)
let fig1_hypergraph () =
  (* nets: 0=a 1=b 2=c 3=X 4=Y 5=z1 6=z2 *)
  Hypergraph.create ~num_nets:7
    ~external_nets:[ 0; 1; 2 ]
    [
      spec "M" [ 0; 1; 2 ] [ 3; 4 ]
        [ Bitvec.of_list [ 0; 1 ]; Bitvec.of_list [ 1; 2 ] ];
      spec "SX" [ 3 ] [ 5 ] [ Bitvec.of_list [ 0 ] ];
      spec "SY" [ 4 ] [ 6 ] [ Bitvec.of_list [ 0 ] ];
    ]

let test_hypergraph_create () =
  let h = fig1_hypergraph () in
  checki "cells" 3 (Hypergraph.num_cells h);
  checki "area" 3 (Hypergraph.total_area h);
  checki "pins" 9 (Hypergraph.pins h);
  checkb "valid" true (Result.is_ok (Hypergraph.validate h));
  check Alcotest.(array int) "net_cells of b" [| 0 |] h.Hypergraph.net_cells.(1);
  check Alcotest.(array int) "net_cells of X" [| 0; 1 |] h.Hypergraph.net_cells.(3)

let test_hypergraph_connected_nets () =
  let h = fig1_hypergraph () in
  let m = Hypergraph.cell h 0 in
  check Alcotest.(array int) "full copy" [| 0; 1; 2; 3; 4 |]
    (Hypergraph.connected_nets m ~out_mask:0b11);
  check Alcotest.(array int) "X only: a b X" [| 0; 1; 3 |]
    (Hypergraph.connected_nets m ~out_mask:0b01);
  check Alcotest.(array int) "Y only: b c Y" [| 1; 2; 4 |]
    (Hypergraph.connected_nets m ~out_mask:0b10);
  check Alcotest.(array int) "no outputs" [||]
    (Hypergraph.connected_nets m ~out_mask:0)

(* One random cell over a 12-net pool whose input pins may repeat a net
   and may read the cell's own output nets (flip-flop feedback), the
   cases the memoised pin masks must get right. Nets it does not drive
   are external. *)
let random_cell_hypergraph seed =
  let rng = Netlist.Rng.create seed in
  let pool = 12 in
  let n_out = 1 + Netlist.Rng.int rng 6 in
  let n_in = Netlist.Rng.int rng 9 in
  let outputs = Netlist.Rng.sample rng n_out pool in
  let inputs = Array.init n_in (fun _ -> Netlist.Rng.int rng pool) in
  let supports =
    Array.init n_out (fun _ ->
        Test_util.random_mask rng (Bitvec.full n_in))
  in
  for i = 0 to n_in - 1 do
    if not (Array.exists (Bitvec.mem i) supports) then begin
      let o = Netlist.Rng.int rng n_out in
      supports.(o) <- Bitvec.add i supports.(o)
    end
  done;
  let external_nets =
    List.filter
      (fun n -> not (Array.mem n outputs))
      (List.init pool Fun.id)
  in
  Hypergraph.create ~num_nets:pool ~external_nets
    [ Test_util.spec "c" (Array.to_list inputs) (Array.to_list outputs)
        (Array.to_list supports) ]

(* The nets a copy carrying [m] touches, straight from the definition:
   its outputs' nets, plus the nets of [in_pins m]. *)
let touched_reference (c : Hypergraph.cell) ~in_pins m =
  if Bitvec.is_empty m then []
  else
    List.sort_uniq compare
      (List.map (fun o -> c.Hypergraph.outputs.(o)) (Bitvec.to_list m)
      @ List.map (fun i -> c.Hypergraph.inputs.(i)) (Bitvec.to_list (in_pins m)))

let qcheck_connected_nets_reference =
  QCheck.Test.make ~name:"connected nets = definition, both models" ~count:200
    QCheck.small_int (fun seed ->
      let h = random_cell_hypergraph seed in
      let c = Hypergraph.cell h 0 in
      let full = Bitvec.full (Array.length c.Hypergraph.outputs) in
      let functional m =
        Bitvec.fold (fun o acc -> Bitvec.union acc c.Hypergraph.supports.(o))
          m Bitvec.empty
      in
      let traditional _ = Bitvec.full (Array.length c.Hypergraph.inputs) in
      (* Per-net side counts of a one-cell state are 0/1 membership. *)
      let side_nets st side =
        List.filter
          (fun n -> Partition_state.connections st side n > 0)
          (List.init h.Hypergraph.num_nets Fun.id)
      in
      let ok = ref (Array.to_list (Hypergraph.cell_nets c)
                    = touched_reference c ~in_pins:functional full) in
      for m = 0 to full do
        let want = touched_reference c ~in_pins:functional m in
        if Array.to_list (Hypergraph.connected_nets c ~out_mask:m) <> want then
          ok := false;
        List.iter
          (fun (h, in_pins) ->
            let st = Partition_state.create_with_masks (flat h) ~masks:(fun _ -> m) in
            if
              side_nets st Partition_state.B <> touched_reference c ~in_pins m
              || side_nets st Partition_state.A
                 <> touched_reference c ~in_pins (Bitvec.diff full m)
            then ok := false)
          [ (h, functional); (Experiments.Ablation.traditional h, traditional) ]
      done;
      !ok)

let test_hypergraph_rejects_bad () =
  let reject name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail (name ^ ": expected rejection")
  in
  reject "two drivers" (fun () ->
      Hypergraph.create ~num_nets:2 ~external_nets:[ 0 ]
        [
          spec "a" [ 0 ] [ 1 ] [ Bitvec.of_list [ 0 ] ];
          spec "b" [ 0 ] [ 1 ] [ Bitvec.of_list [ 0 ] ];
        ]);
  reject "driverless non-external" (fun () ->
      Hypergraph.create ~num_nets:2 ~external_nets:[]
        [ spec "a" [ 0 ] [ 1 ] [ Bitvec.of_list [ 0 ] ] ]);
  reject "unused input pin" (fun () ->
      Hypergraph.create ~num_nets:3 ~external_nets:[ 0; 1 ]
        [ spec "a" [ 0; 1 ] [ 2 ] [ Bitvec.of_list [ 0 ] ] ]);
  reject "support out of range" (fun () ->
      Hypergraph.create ~num_nets:2 ~external_nets:[ 0 ]
        [ spec "a" [ 0 ] [ 1 ] [ Bitvec.of_list [ 1 ] ] ]);
  reject "no outputs" (fun () ->
      Hypergraph.create ~num_nets:1 ~external_nets:[ 0 ]
        [ spec "a" [ 0 ] [] [] ])

module Flat = Hypergraph.Flat

(* Stage [specs] in order and carve them out of [p] into [into]. *)
let carve p specs ~into =
  List.iter (fun (c, m) -> Flat.stage into ~cell:c m) specs;
  Flat.carve p ~into

let test_hypergraph_induce () =
  let h = fig1_hypergraph () in
  (* Keep only the consumer of X, whole. *)
  let whole =
    Bitvec.full (Array.length (Hypergraph.cell h 1).Hypergraph.outputs)
  in
  let g = Flat.buffer () in
  carve (flat h) [ (1, whole) ] ~into:g;
  checki "one cell" 1 (Flat.num_cells g);
  checki "mapping" 1 g.Flat.origin_cell.(0);
  (* Its nets: X (external now: driver dropped) and z1 (not read: but z1 was
     never read by anyone, so it only touches the kept cell). *)
  checki "nets" 2 (Flat.num_nets g);
  checkb "X external" true g.Flat.net_external.(0);
  checkb "z1 internal" false g.Flat.net_external.(1)

let test_hypergraph_induce_partial_copy () =
  let h = fig1_hypergraph () in
  (* Keep a partial copy of M carrying only output Y, plus SY. *)
  let g = Flat.buffer () in
  carve (flat h) [ (0, 0b10); (2, 0b1) ] ~into:g;
  checki "cells" 2 (Flat.num_cells g);
  checki "partial copy inputs" 2 g.Flat.inputs.(0);
  checki "partial copy outputs" 1 g.Flat.outputs.(0);
  (* Y's support {b, c}, renumbered densely. *)
  checki "partial copy support" 0b11 g.Flat.supports.(g.Flat.sup_off.(0));
  checki "origin mask" 0b10 g.Flat.origin_mask.(0);
  (* b and c feed it and are external; Y is internal (driver + reader kept,
     no dropped incidence). *)
  let ext_count = ref 0 in
  for n = 0 to Flat.num_nets g - 1 do
    if g.Flat.net_external.(n) then incr ext_count
  done;
  checki "externals" 2 !ext_count

(* The list- and Hashtbl-built induced copy the flat carve replaced,
   kept verbatim as the reference the carve must equal field for
   field. *)
let reference_induce_copies h specs =
  let open Hypergraph in
  let kept_mask = Array.make (num_cells h) Bitvec.empty in
  List.iter
    (fun (id, m) ->
      if id < 0 || id >= num_cells h then
        invalid_arg "Hypergraph.induce_copies: cell id out of range";
      if Bitvec.is_empty m then
        invalid_arg "Hypergraph.induce_copies: empty output mask";
      if not (Bitvec.subset m (Bitvec.full (Array.length h.cells.(id).outputs)))
      then invalid_arg "Hypergraph.induce_copies: mask out of range";
      if not (Bitvec.is_empty kept_mask.(id)) then
        invalid_arg "Hypergraph.induce_copies: duplicate cell";
      kept_mask.(id) <- m)
    specs;
  (* Net renumbering: nets touched by kept copies survive. *)
  let net_map = Array.make h.num_nets (-1) in
  let new_nets = Netlist.Vec.create () in
  let map_net n =
    if net_map.(n) < 0 then
      net_map.(n) <- Netlist.Vec.push new_nets n;
    net_map.(n)
  in
  let specs = Array.of_list specs in
  Array.iter
    (fun (id, m) ->
      Array.iter
        (fun n -> ignore (map_net n))
        (connected_nets h.cells.(id) ~out_mask:m))
    specs;
  let num_new_nets = Netlist.Vec.length new_nets in
  (* External detection: walk original incidences. *)
  let external_flags = Array.make num_new_nets false in
  for n = 0 to h.num_nets - 1 do
    if net_map.(n) >= 0 then begin
      let ext = ref h.net_external.(n) in
      Array.iter
        (fun cid ->
          let cell = h.cells.(cid) in
          let kept = kept_mask.(cid) in
          let touches m =
            (not (Bitvec.is_empty m))
            && Array.exists (fun n' -> n' = n) (connected_nets cell ~out_mask:m)
          in
          (* The cell touches n (it is in net_cells). The net leaks outside
             when the kept copy does not cover that incidence, or when the
             dropped copy (the complement of the kept outputs, e.g. the
             other half of a replicated cell) also touches it. *)
          let dropped =
            Bitvec.diff (Bitvec.full (Array.length cell.outputs)) kept
          in
          if (not (touches kept)) || touches dropped then ext := true)
        h.net_cells.(n);
      external_flags.(net_map.(n)) <- !ext
    end
  done;
  let new_specs =
    Array.to_list specs
    |> List.map (fun (id, m) ->
           let c = h.cells.(id) in
           let in_pins = Bitvec.to_list (input_support c m) in
           let new_index = Hashtbl.create 8 in
           List.iteri (fun k p -> Hashtbl.add new_index p k) in_pins;
           let s_inputs =
             Array.of_list (List.map (fun p -> net_map.(c.inputs.(p))) in_pins)
           in
           let out_pins = Bitvec.to_list m in
           let s_outputs =
             Array.of_list (List.map (fun o -> net_map.(c.outputs.(o))) out_pins)
           in
           let s_supports =
             Array.of_list
               (List.map
                  (fun o ->
                    Bitvec.fold
                      (fun p acc -> Bitvec.add (Hashtbl.find new_index p) acc)
                      c.supports.(o) Bitvec.empty)
                  out_pins)
           in
           { s_name = c.name; s_area = c.area; s_demand = c.demand;
             s_inputs; s_outputs; s_supports })
  in
  let net_names =
    Array.init num_new_nets (fun k -> h.net_names.(Netlist.Vec.get new_nets k))
  in
  let externals = ref [] in
  Array.iteri (fun k e -> if e then externals := k :: !externals) external_flags;
  let h' =
    create ~net_names ~num_nets:num_new_nets ~external_nets:!externals new_specs
  in
  (h', specs)

(* A random state over the flat graph [g] with some cells replicated:
   both sides' copies are the specs the recursive split and pairwise
   refinement carve. *)
let replicated_state seed g =
  let rng = Netlist.Rng.create (seed + 7000) in
  let st =
    Partition_state.create g ~init_on_b:(fun _ -> Netlist.Rng.bool rng)
  in
  for _ = 1 to Flat.num_cells g do
    let c = Netlist.Rng.int rng (Flat.num_cells g) in
    Partition_state.apply st c
      (Test_util.random_mask rng (Partition_state.full_mask st c))
  done;
  st

(* The live prefix of a flat graph, field by field. A buffer's arrays
   may run past its live counts, so only the prefix is compared. *)
let live (g : Flat.t) =
  let n = g.Flat.num_cells and nets = g.Flat.num_nets in
  let incs = g.Flat.cell_off.(n) and sups = g.Flat.sup_off.(n) in
  let sub a len = Array.to_list (Array.sub a 0 len) in
  [
    ("counts", [ n; nets; g.Flat.max_degree ]);
    ("cell_off", sub g.Flat.cell_off (n + 1));
    ("inc_net", sub g.Flat.inc_net incs);
    ("inc_in", sub g.Flat.inc_in incs);
    ("inc_out", sub g.Flat.inc_out incs);
    ("outputs", sub g.Flat.outputs n);
    ("inputs", sub g.Flat.inputs n);
    ("sup_off", sub g.Flat.sup_off (n + 1));
    ("supports", sub g.Flat.supports sups);
    ("area", sub g.Flat.area n);
    ("demand", sub g.Flat.demand (n * Hypergraph.demand_arity));
    ("net_off", sub g.Flat.net_off (nets + 1));
    ("net_cell", sub g.Flat.net_cell g.Flat.net_off.(nets));
    ( "net_external",
      List.map Bool.to_int (Array.to_list (Array.sub g.Flat.net_external 0 nets))
    );
  ]

(* [None] when the carved [got] holds, field for field, the flat form of
   the reference graph [want] with the origins [origin]; else the first
   field that differs. *)
let differs got want origin =
  let origins (g : Flat.t) =
    List.init g.Flat.num_cells (fun c ->
        (g.Flat.origin_cell.(c), g.Flat.origin_mask.(c)))
  in
  match
    List.find_opt
      (fun ((_, a), (_, b)) -> a <> b)
      (List.combine (live got) (live (flat want)))
  with
  | Some ((name, _), _) -> Some name
  | None -> if origins got <> Array.to_list origin then Some "origin" else None

(* The reference's origins: each copy of [want_specs] (cells of a graph
   whose own origins are [parent]) in root coordinates. *)
let compose parent want_specs =
  Array.map
    (fun (c, m) ->
      let oc, om = parent.(c) in
      (oc, Bitvec.expand om m))
    want_specs

let qcheck_induce_copies_reference =
  (* The flat carve against the list-built reference: one side of a
     replicated random state carved out of the root in both spec orders
     (the forward one straight from the state's masks, as the split
     does), then a remainder of that remainder and one more, as [Split]
     chains them, through two recycled buffers: the third carve goes
     into the buffer that held the first, larger graph, so a stale tail
     past the live counts would show. *)
  QCheck.Test.make ~name:"induce_copies = reference on both sides" ~count:100
    QCheck.(pair small_int (int_range 1 30))
    (fun (seed, n_cells) ->
      let h = Test_util.random_hypergraph seed n_cells in
      let root = flat h in
      let root_origin =
        Array.init (Hypergraph.num_cells h) (fun c ->
            (c, Bitvec.full (Array.length (Hypergraph.cell h c).outputs)))
      in
      let buffers = [| Flat.buffer (); Flat.buffer () |] in
      let fail step field =
        QCheck.Test.fail_reportf "%s: carve differs from the reference in %s"
          step field
      in
      let check step got (want, _) origin =
        Option.iter (fail step) (differs got want origin)
      in
      (* Both sides of the root, both orders; each returns the reference
         graph and its origins for the chain. *)
      let first side =
        let st = replicated_state seed root in
        let specs = Partition_state.side_copies st side in
        if specs = [] then None
        else begin
          let want = reference_induce_copies h specs in
          let origin = compose root_origin (snd want) in
          carve root (List.rev specs) ~into:buffers.(1);
          let rev = reference_induce_copies h (List.rev specs) in
          check "reversed" buffers.(1) rev (compose root_origin (snd rev));
          Partition_state.carve st side ~into:buffers.(0);
          check "root" buffers.(0) want origin;
          Some (fst want, origin)
        end
      in
      (* Carve the [side] copies of a replicated state over the graph in
         [buffers.(i)] into the other buffer. *)
      let rec chain i (ref_h, ref_origin) side depth =
        if depth > 0 then begin
          let st = replicated_state (seed + depth) buffers.(i) in
          let specs = Partition_state.side_copies st side in
          if specs <> [] then begin
            let want = reference_induce_copies ref_h specs in
            let origin = compose ref_origin (snd want) in
            Partition_state.carve st side ~into:buffers.(1 - i);
            check (Printf.sprintf "chain %d" depth) buffers.(1 - i) want origin;
            chain (1 - i) (fst want, origin) side (depth - 1)
          end
        end
      in
      List.iter
        (fun side ->
          Option.iter (fun r -> chain 0 r side 2) (first side))
        [ Partition_state.A; Partition_state.B ];
      true)

let test_induce_copies_bad_specs () =
  let h = fig1_hypergraph () in
  let g = Flat.buffer () in
  carve (flat h) [ (1, 0b1); (2, 0b1) ] ~into:g;
  let before = live g in
  let raised f =
    match f () with exception Invalid_argument msg -> msg | _ -> "no error"
  in
  List.iter
    (fun (specs, msg) ->
      check Alcotest.string msg ("Hypergraph.Flat.carve: " ^ msg)
        (raised (fun () -> carve (flat h) specs ~into:g));
      check Alcotest.string ("reference: " ^ msg)
        ("Hypergraph.induce_copies: " ^ msg)
        (raised (fun () -> reference_induce_copies h specs));
      checkb (msg ^ ": the buffer keeps its graph") true (live g = before))
    [
      ([ (0, 0b11); (3, 0b1) ], "cell id out of range");
      ([ (1, 0b1); (0, Bitvec.empty) ], "empty output mask");
      ([ (0, 0b100) ], "mask out of range");
      ([ (0, 0b01); (2, 0b1); (0, 0b10) ], "duplicate cell");
    ];
  check Alcotest.string "own buffer"
    "Hypergraph.Flat.carve: a graph cannot be carved into its own buffer"
    (raised (fun () -> carve g [ (0, 0b1) ] ~into:g));
  let root = flat h in
  check Alcotest.string "frozen" "Hypergraph.Flat.stage: not a buffer"
    (raised (fun () -> carve g [ (0, 0b1) ] ~into:root))

(* The split driver carves each remainder into a buffer sized by an
   earlier, larger graph: once warm, a carve writes into the buffer's
   arrays and allocates next to nothing, however large the graph. *)
let test_induce_copies_allocation () =
  let s38584 = Option.get (Experiments.Suite.find "s38584") in
  let root = flat (Lazy.force s38584.Experiments.Suite.hypergraph) in
  let st = replicated_state 1 root in
  checkb "side B has replicated copies" true
    (List.exists
       (fun (c, m) -> not (Bitvec.equal m (Partition_state.full_mask st c)))
       (Partition_state.side_copies st Partition_state.B));
  let g = Flat.buffer () in
  Partition_state.carve st Partition_state.B ~into:g;
  let cells = Flat.num_cells g in
  let words =
    Test_util.words_during (fun () ->
        Partition_state.carve st Partition_state.B ~into:g)
  in
  checki "same graph" cells (Flat.num_cells g);
  if words > 300.0 then
    Alcotest.failf "a warm carve of %d cells allocated %.0f words (bound 300)"
      cells words

(* The closure-built [boundary] the flat-loop rewrite replaced, kept as
   the reference. *)
let reference_boundary h ~labels =
  let flags = Array.make (Hypergraph.num_cells h) false in
  Array.iter
    (fun cells ->
      if Array.length cells > 1 then begin
        let l0 = labels.(cells.(0)) in
        if Array.exists (fun c -> labels.(c) <> l0) cells then
          Array.iter (fun c -> flags.(c) <- true) cells
      end)
    h.Hypergraph.net_cells;
  flags

let qcheck_boundary_reference =
  QCheck.Test.make ~name:"boundary = reference on random labellings"
    ~count:200
    QCheck.(triple small_int (int_range 1 40) (int_range 1 5))
    (fun (seed, n_cells, k) ->
      let h = Test_util.random_hypergraph seed n_cells in
      let rng = Netlist.Rng.create (seed + 7000) in
      let labels =
        Array.init (Hypergraph.num_cells h) (fun _ -> Netlist.Rng.int rng k)
      in
      Hypergraph.boundary h ~labels = reference_boundary h ~labels)

(* [boundary] allocates its flag array and nothing per net: on mapped
   s38584 under a 4-way labelling, at most the array's words plus a
   constant (the reference allocated two closures per multi-pin net). *)
let test_boundary_allocation () =
  let s38584 = Option.get (Experiments.Suite.find "s38584") in
  let h = Lazy.force s38584.Experiments.Suite.hypergraph in
  let n = Hypergraph.num_cells h in
  let labels = Array.init n (fun c -> c * 4 / n) in
  let flags = ref (Hypergraph.boundary h ~labels) in
  checkb "some cells on the boundary" true (Array.exists Fun.id !flags);
  let words =
    Test_util.words_during (fun () -> flags := Hypergraph.boundary h ~labels)
  in
  let bound = float_of_int (Obj.reachable_words (Obj.repr !flags) + 16) in
  if words > bound then
    Alcotest.failf "boundary allocated %.0f words (bound %.0f)" words bound

(* ------------------------------------------------------------------ *)
(* Partition state                                                    *)
(* ------------------------------------------------------------------ *)

(* A deterministic random hypergraph for property tests: [n_cells] cells,
   each with 1-3 outputs and 1-4 inputs drawn from earlier nets. Unlike
   [Test_util.random_hypergraph], which draws distinct nets, each input
   is drawn on its own with [Rng.pick], so one net can sit on two pins of
   a cell: the state's counters must count such a net once per cell. *)
let random_hypergraph_repeated_pins seed n_cells =
  let rng = Netlist.Rng.create seed in
  let next_net = ref 0 in
  let fresh_net () =
    let n = !next_net in
    incr next_net;
    n
  in
  (* Seed nets playing the role of chip inputs. *)
  let n_primary = 4 + Netlist.Rng.int rng 4 in
  let primary = List.init n_primary (fun _ -> fresh_net ()) in
  let available = ref (Array.of_list primary) in
  let specs = ref [] in
  for k = 0 to n_cells - 1 do
    let n_out = 1 + Netlist.Rng.int rng 3 in
    let n_in = 1 + Netlist.Rng.int rng 4 in
    let inputs =
      Array.init n_in (fun _ -> Netlist.Rng.pick rng !available)
    in
    let outputs = Array.init n_out (fun _ -> fresh_net ()) in
    (* Random supports covering all input pins. *)
    let supports =
      Array.init n_out (fun _ ->
          let m = ref Bitvec.empty in
          for i = 0 to n_in - 1 do
            if Netlist.Rng.bool rng then m := Bitvec.add i !m
          done;
          !m)
    in
    (* Ensure every output depends on something and every pin is used. *)
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
  Hypergraph.create ~num_nets:!next_net ~external_nets:primary
    (List.rev !specs)

let qcheck_state_consistency =
  QCheck.Test.make ~name:"incremental counters = recount" ~count:60
    QCheck.(pair small_int (int_range 3 25))
    (fun (seed, n_cells) ->
      let h = random_hypergraph_repeated_pins seed n_cells in
      let rng = Netlist.Rng.create (seed + 1000) in
      let st =
        Partition_state.create (flat h) ~init_on_b:(fun _ -> Netlist.Rng.bool rng)
      in
      let steps = 40 in
      let ok = ref (Result.is_ok (Partition_state.check_consistency st)) in
      for _ = 1 to steps do
        let c = Netlist.Rng.int rng (Hypergraph.num_cells h) in
        let m = Test_util.random_mask rng (Partition_state.full_mask st c) in
        Partition_state.apply st c m;
        if not (Result.is_ok (Partition_state.check_consistency st)) then
          ok := false
      done;
      !ok)

let qcheck_eval_predicts_apply =
  QCheck.Test.make ~name:"eval = apply delta, and counters shift by it"
    ~count:60
    QCheck.(pair small_int (int_range 3 25))
    (fun (seed, n_cells) ->
      let h = random_hypergraph_repeated_pins seed n_cells in
      let rng = Netlist.Rng.create (seed + 2000) in
      let st = Partition_state.create (flat h) ~init_on_b:(fun c -> c mod 2 = 0) in
      let ok = ref true in
      for _ = 1 to 30 do
        let c = Netlist.Rng.int rng (Hypergraph.num_cells h) in
        let m = Test_util.random_mask rng (Partition_state.full_mask st c) in
        let predicted = Test_util.eval st c m in
        let counters () =
          Partition_state.
            ( cut st,
              terminals st A,
              terminals st B,
              resources st A,
              resources st B )
        in
        let cut0, ta0, tb0, ra0, rb0 = counters () in
        Partition_state.apply st c m;
        let cut1, ta1, tb1, ra1, rb1 = counters () in
        let actual =
          {
            Partition_state.sc_cut = cut1 - cut0;
            sc_term_a = ta1 - ta0;
            sc_term_b = tb1 - tb0;
            sc_area_a = ra1.(0) - ra0.(0);
            sc_area_b = rb1.(0) - rb0.(0);
            sc_res_a = Array.map2 ( - ) ra1 ra0;
            sc_res_b = Array.map2 ( - ) rb1 rb0;
          }
        in
        if predicted <> actual then ok := false
      done;
      !ok)

let qcheck_apply_involution =
  QCheck.Test.make ~name:"undoing a mask restores counters"
    ~count:60
    QCheck.(pair small_int (int_range 3 20))
    (fun (seed, n_cells) ->
      let h = random_hypergraph_repeated_pins seed n_cells in
      let rng = Netlist.Rng.create (seed + 3000) in
      let st = Partition_state.create (flat h) ~init_on_b:(fun _ -> false) in
      let ok = ref true in
      for _ = 1 to 20 do
        let c = Netlist.Rng.int rng (Hypergraph.num_cells h) in
        let old_mask = Partition_state.mask st c in
        let m = Test_util.random_mask rng (Partition_state.full_mask st c) in
        let cut0 = Partition_state.cut st in
        Partition_state.apply st c m;
        Partition_state.apply st c old_mask;
        if Partition_state.cut st <> cut0 then ok := false;
        if not (Bitvec.equal (Partition_state.mask st c) old_mask) then
          ok := false
      done;
      !ok)

let qcheck_reused_scratch =
  (* One scratch written over and over (the F-M hot loop's use) holds
     exactly what a fresh one would: each write replaces every field,
     the current mask's zero delta included. *)
  QCheck.Test.make ~name:"a reused scratch = a fresh one" ~count:60
    QCheck.(pair small_int (int_range 3 25))
    (fun (seed, n_cells) ->
      let h = random_hypergraph_repeated_pins seed n_cells in
      let rng = Netlist.Rng.create (seed + 4000) in
      let st = Partition_state.create (flat h) ~init_on_b:(fun c -> c mod 3 = 0) in
      let sc = Partition_state.make_scratch () in
      let ok = ref true in
      for _ = 1 to 40 do
        let c = Netlist.Rng.int rng (Hypergraph.num_cells h) in
        let m = Test_util.random_mask rng (Partition_state.full_mask st c) in
        Partition_state.eval_into st c m sc;
        if sc <> Test_util.eval st c m then ok := false;
        (* Occasionally commit so later iterations see varied states. *)
        if Netlist.Rng.int rng 3 = 0 then Partition_state.apply st c m
      done;
      !ok)

(* Everything a state answers, cell by cell and net by net. *)
let state_view st =
  let g = Partition_state.graph st in
  let side s =
    ( Partition_state.terminals st s,
      Partition_state.area st s,
      Partition_state.resources st s,
      List.init (Flat.num_nets g) (Partition_state.connections st s) )
  in
  ( List.init (Flat.num_cells g) (Partition_state.mask st),
    Partition_state.cut st,
    side Partition_state.A,
    side Partition_state.B )

let qcheck_reuse_oracle =
  (* A state retired on a larger graph, with replicated masks applied,
     rebuilt on a carve of one side (the remainder a split leaves
     behind, the state's storage more than enough): it must hold what a
     fresh state of the same sides holds, counters by the same count, and
     F-M from it must end where F-M from the fresh state ends. *)
  QCheck.Test.make ~name:"reuse = create on a smaller graph" ~count:200
    QCheck.(triple small_int (int_range 2 40) bool)
    (fun (seed, n_cells, with_masks) ->
      let big = flat (Test_util.random_hypergraph seed n_cells) in
      let old = replicated_state seed big in
      QCheck.assume (Partition_state.side_copies old Partition_state.B <> []);
      let g = Flat.buffer () in
      Partition_state.carve old Partition_state.B ~into:g;
      let rng = Netlist.Rng.create (seed + 9000) in
      let masks =
        Array.init (Flat.num_cells g) (fun c ->
            let full = Bitvec.full g.Flat.outputs.(c) in
            if with_masks then Test_util.random_mask rng full
            else if Netlist.Rng.bool rng then full
            else Bitvec.empty)
      in
      let fresh, reused =
        if with_masks then
          ( Partition_state.create_with_masks g ~masks:(Array.get masks),
            Partition_state.reuse_with_masks old g ~masks:(Array.get masks) )
        else
          let init_on_b c = not (Bitvec.is_empty masks.(c)) in
          ( Partition_state.create g ~init_on_b,
            Partition_state.reuse old g ~init_on_b )
      in
      let same = state_view fresh = state_view reused in
      if not same then QCheck.Test.fail_report "reused state differs";
      (match Partition_state.check_consistency reused with
      | Ok () -> ()
      | Error e -> QCheck.Test.fail_reportf "reused state: %s" e);
      let cfg =
        Core.Fm.balance_config ~replication:(`Functional 0)
          ~total_area:(Flat.total_area g) ()
      in
      let s_fresh = Core.Fm.run_staged cfg fresh in
      let s_reused = Core.Fm.run_staged cfg reused in
      (* Back on the larger graph, whose cells the fresh state's storage
         may be short of: still what [create] builds. *)
      let init_on_b c = c mod 3 = 0 in
      s_fresh = s_reused
      && state_view fresh = state_view reused
      && state_view (Partition_state.reuse fresh big ~init_on_b)
         = state_view (Partition_state.create big ~init_on_b))

let qcheck_changed_nets_exact =
  QCheck.Test.make
    ~name:"iter_changed_nets = crossings"
    ~count:60
    QCheck.(pair small_int (int_range 3 25))
    (fun (seed, n_cells) ->
      let h = random_hypergraph_repeated_pins seed n_cells in
      let rng = Netlist.Rng.create (seed + 5000) in
      let st = Partition_state.create (flat h) ~init_on_b:(fun c -> c mod 2 = 1) in
      let nn = h.Hypergraph.num_nets in
      let cat side net = min (Partition_state.connections st side net) 2 in
      let ok = ref true in
      for _ = 1 to 40 do
        let before =
          Array.init nn (fun net ->
              (cat Partition_state.A net, cat Partition_state.B net))
        in
        let c = Netlist.Rng.int rng (Hypergraph.num_cells h) in
        let m = Test_util.random_mask rng (Partition_state.full_mask st c) in
        Partition_state.apply st c m;
        let expected = ref [] in
        for net = nn - 1 downto 0 do
          if before.(net) <> (cat Partition_state.A net, cat Partition_state.B net)
          then expected := net :: !expected
        done;
        let reported = ref [] in
        Partition_state.iter_changed_nets st (fun net ->
            reported := net :: !reported);
        let raw = !reported in
        let sorted = List.sort_uniq compare raw in
        (* No duplicates in the report, and exactly the category-crossing
           nets. *)
        if List.length raw <> List.length sorted then ok := false;
        if sorted <> !expected then ok := false
      done;
      !ok)

(* The paper's Fig. 4 worked example, derived in [Test_util]. *)
let test_state_fig4_initial_cut () =
  let _, st = Test_util.fig4_state () in
  checki "initial cut is 3 (i1, i2, X2)" 3 (Partition_state.cut st)

let test_state_fig4_single_move () =
  (* Fig. 4, option 1: moving M to B raises the cut to 4 (gain -1). *)
  let _, st = Test_util.fig4_state () in
  let d = Test_util.eval st 0 (Partition_state.full_mask st 0) in
  checki "single-move gain = -1" 1 d.Partition_state.sc_cut;
  Partition_state.apply st 0 (Partition_state.full_mask st 0);
  checki "cut becomes 4" 4 (Partition_state.cut st)

let test_state_fig4_functional_replication () =
  (* Fig. 4, option 3: replicate M with output X2 (index 1) migrating to B.
     The replica reads only i2 (= A_X2); nets X2 and i2 both leave the cut:
     gain +2, cut 3 -> 1. *)
  let _, st = Test_util.fig4_state () in
  let d = Test_util.eval st 0 (Bitvec.singleton 1) in
  checki "functional replication gain = +2" (-2) d.Partition_state.sc_cut;
  Partition_state.apply st 0 (Bitvec.singleton 1);
  checki "cut becomes 1" 1 (Partition_state.cut st);
  checkb "M replicated" true (Partition_state.is_replicated st 0);
  checki "one replicated cell" 1 (Partition_state.num_replicated st);
  (* Migrating the other output instead is a bad idea: the replica would
     need i1, i3, i4, i5 on B and X1 becomes cut. *)
  let st2 = snd (Test_util.fig4_state ()) in
  let d2 = Test_util.eval st2 0 (Bitvec.singleton 0) in
  checki "migrating X1 instead loses 3" 3 d2.Partition_state.sc_cut

let test_state_fig4_unreplication () =
  let _, st = Test_util.fig4_state () in
  Partition_state.apply st 0 (Bitvec.singleton 1);
  let cut_replicated = Partition_state.cut st in
  (* Merging the copies back onto side A restores the initial situation. *)
  Partition_state.apply st 0 Bitvec.empty;
  checkb "unreplicated" false (Partition_state.is_replicated st 0);
  checki "cut restored" 3 (Partition_state.cut st);
  checkb "replication had helped" true (cut_replicated < 3)

let test_state_areas_and_replication () =
  let _, st = Test_util.fig4_state () in
  checki "area A: M + D3 D4 D5 + RX1" 5 (Partition_state.area st Partition_state.A);
  checki "area B: D1 D2 RX2" 3 (Partition_state.area st Partition_state.B);
  Partition_state.apply st 0 (Bitvec.singleton 1);
  (* Replication pays one extra CLB on side B. *)
  checki "area A unchanged" 5 (Partition_state.area st Partition_state.A);
  checki "area B + 1" 4 (Partition_state.area st Partition_state.B)

let test_state_terminals () =
  let h = fig1_hypergraph () in
  (* All on A: terminals of A = external nets touching A = a, b, c. *)
  let st = Partition_state.create (flat h) ~init_on_b:(fun _ -> false) in
  checki "term A" 3 (Partition_state.terminals st Partition_state.A);
  checki "term B" 0 (Partition_state.terminals st Partition_state.B);
  (* Move SY to B: net Y crosses (term on both), B gains terminal Y. *)
  Partition_state.apply st 2 (Bitvec.full 1);
  checki "term A after" 4 (Partition_state.terminals st Partition_state.A);
  checki "term B after" 1 (Partition_state.terminals st Partition_state.B)

let test_side_copies () =
  let h = fig1_hypergraph () in
  let st = Partition_state.create (flat h) ~init_on_b:(fun c -> c = 2) in
  Partition_state.apply st 0 (Bitvec.singleton 1);
  let copies_a = Partition_state.side_copies st Partition_state.A in
  let copies_b = Partition_state.side_copies st Partition_state.B in
  check
    Alcotest.(list (pair int int))
    "A holds M(X) and SX" [ (0, 0b01); (1, 0b1) ] copies_a;
  check
    Alcotest.(list (pair int int))
    "B holds M(Y) and SY" [ (0, 0b10); (2, 0b1) ] copies_b

let qcheck_induction_matches_terminals =
  (* The invariant the k-way driver rests on: carving one side's copies
     yields a graph whose external-net count equals that side's terminal
     count in the bipartition state. *)
  QCheck.Test.make ~name:"induced externality = terminals" ~count:40
    QCheck.(pair small_int (int_range 4 20))
    (fun (seed, n_cells) ->
      let h = Test_util.random_hypergraph seed n_cells in
      let rng = Netlist.Rng.create (seed + 4000) in
      let st =
        Partition_state.create (flat h) ~init_on_b:(fun _ ->
            Netlist.Rng.bool rng)
      in
      (* Random replication too. *)
      for _ = 1 to 15 do
        let c = Netlist.Rng.int rng (Hypergraph.num_cells h) in
        let m = Test_util.random_mask rng (Partition_state.full_mask st c) in
        Partition_state.apply st c m
      done;
      let sub = Flat.buffer () in
      let check side =
        Partition_state.carve st side ~into:sub;
        let ext = ref 0 in
        for n = 0 to Flat.num_nets sub - 1 do
          if sub.Flat.net_external.(n) then incr ext
        done;
        !ext = Partition_state.terminals st side
      in
      check Partition_state.A && check Partition_state.B)

let qcheck_projection_identity =
  (* Projecting any labelling onto the unedited hypergraph must be the
     identity: all cells match and keep their labels, nothing is dirty
     beyond what base_dirty forces, no net counts as changed. *)
  QCheck.Test.make ~name:"projection onto unedited hypergraph is identity"
    ~count:60
    QCheck.(pair small_int (int_range 4 24))
    (fun (seed, n_cells) ->
      let h = Test_util.random_hypergraph seed n_cells in
      let n = Hypergraph.num_cells h in
      let rng = Netlist.Rng.create (seed + 9000) in
      let labels = Array.init n (fun _ -> Netlist.Rng.int rng 4) in
      let p = Projection.project ~base:h ~base_labels:labels h in
      let forced = Array.init n (fun _ -> Netlist.Rng.bool rng) in
      let pf = Projection.project ~base:h ~base_labels:labels ~base_dirty:forced h in
      p.Projection.labels = labels
      && Array.for_all not p.Projection.dirty
      && p.Projection.matched = n
      && p.Projection.added = 0
      && p.Projection.dropped = 0
      && p.Projection.changed_nets = 0
      && pf.Projection.labels = labels
      && pf.Projection.dirty = forced
      && pf.Projection.matched = n && pf.Projection.changed_nets = 0)

let qc t = QCheck_alcotest.to_alcotest t

let () =
  Alcotest.run "hypergraph"
    [
      ( "bitvec",
        [
          Alcotest.test_case "basics" `Quick test_bitvec_basics;
          Alcotest.test_case "iteration order" `Quick test_bitvec_iter_order;
          Alcotest.test_case "paper Fig. 2 psi" `Quick test_bitvec_paper_example;
          qc qcheck_bitvec_complement_involution;
          qc qcheck_bitvec_norm_additive;
        ] );
      ( "hypergraph",
        [
          Alcotest.test_case "create + accessors" `Quick test_hypergraph_create;
          Alcotest.test_case "connected nets of partial copies" `Quick
            test_hypergraph_connected_nets;
          Alcotest.test_case "rejects malformed" `Quick test_hypergraph_rejects_bad;
          Alcotest.test_case "induce" `Quick test_hypergraph_induce;
          Alcotest.test_case "induce partial copy" `Quick
            test_hypergraph_induce_partial_copy;
          qc qcheck_connected_nets_reference;
          qc qcheck_induce_copies_reference;
          Alcotest.test_case "induce_copies bad specs" `Quick
            test_induce_copies_bad_specs;
          Alcotest.test_case "induce_copies allocation" `Quick
            test_induce_copies_allocation;
          qc qcheck_boundary_reference;
          Alcotest.test_case "boundary allocation" `Quick
            test_boundary_allocation;
        ] );
      ( "partition_state",
        [
          Alcotest.test_case "Fig. 4 initial cut" `Quick test_state_fig4_initial_cut;
          Alcotest.test_case "Fig. 4 single move (gain -1)" `Quick
            test_state_fig4_single_move;
          Alcotest.test_case "Fig. 4 replication (gain +2)" `Quick
            test_state_fig4_functional_replication;
          Alcotest.test_case "Fig. 4 unreplication" `Quick
            test_state_fig4_unreplication;
          Alcotest.test_case "areas under replication" `Quick
            test_state_areas_and_replication;
          Alcotest.test_case "terminal counting" `Quick test_state_terminals;
          Alcotest.test_case "side copies" `Quick test_side_copies;
          qc qcheck_state_consistency;
          qc qcheck_induction_matches_terminals;
          qc qcheck_eval_predicts_apply;
          qc qcheck_apply_involution;
          qc qcheck_reused_scratch;
          qc qcheck_changed_nets_exact;
          qc qcheck_reuse_oracle;
        ] );
      ("projection", [ qc qcheck_projection_identity ]);
    ]
