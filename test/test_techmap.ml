(* Tests for the XC3000 technology mapper: decomposition, LUT covering, CLB
   packing, mapped-netlist legality, and functional equivalence with the
   source circuit. *)

open Netlist
open Techmap

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool

let equivalent ?(vectors = 48) c =
  (* Run both representations on identical stimulus. *)
  let rng = Rng.create 7 in
  let vecs = Simulate.random_vectors rng c vectors in
  fun c' -> Simulate.run c vecs = Simulate.run c' vecs

(* ------------------------------------------------------------------ *)
(* Reference definitions                                              *)
(* ------------------------------------------------------------------ *)

(* The first [Cover.run]: cones grown through [Hashtbl]s and evaluated
   assignment by assignment. Ties between equally good absorptions go to
   whichever candidate [Hashtbl.iter] meets first, which is the rule the
   current definition reproduces explicitly. Kept verbatim as the
   reference, so it must run before [Hashtbl.randomize]. *)
module Reference_cover = struct
  open Cover

  let is_source c i =
    match (Circuit.node c i).Circuit.kind with
    | Gate.Input | Gate.Dff | Gate.Const0 | Gate.Const1 -> true
    | _ -> false

  (* Truth table of the cone rooted at [root] with the given support, by
     exhaustive evaluation. [in_cone] marks cone members. *)
  let cone_table c ~root ~support ~in_cone =
    let topo_pos = ref [] in
    (* Gather cone nodes in topological order by DFS from the root. *)
    let visited = Hashtbl.create 16 in
    let rec visit i =
      if not (Hashtbl.mem visited i) then begin
        Hashtbl.add visited i ();
        if Hashtbl.mem in_cone i then begin
          Array.iter visit (Circuit.node c i).Circuit.fanins;
          topo_pos := i :: !topo_pos
        end
      end
    in
    visit root;
    let cone_order = List.rev !topo_pos in
    let n_sup = Array.length support in
    let values = Hashtbl.create 16 in
    let table = ref 0 in
    for assignment = 0 to (1 lsl n_sup) - 1 do
      Hashtbl.reset values;
      Array.iteri
        (fun pin node ->
          Hashtbl.replace values node (assignment land (1 lsl pin) <> 0))
        support;
      (* Constants inside the support are still sources; give them their
         fixed value (overriding the assignment makes those table entries
         don't-cares, which is harmless). *)
      List.iter
        (fun i ->
          let nd = Circuit.node c i in
          let ins =
            Array.map
              (fun f ->
                match Hashtbl.find_opt values f with
                | Some v -> v
                | None -> (
                    match (Circuit.node c f).Circuit.kind with
                    | Gate.Const0 -> false
                    | Gate.Const1 -> true
                    | _ -> assert false))
              nd.Circuit.fanins
          in
          Hashtbl.replace values i (Gate.eval nd.Circuit.kind ins))
        cone_order;
      if Hashtbl.find values root then table := !table lor (1 lsl assignment)
    done;
    !table

  let run ?(k = 4) c =
    let num = Circuit.num_nodes c in
    for i = 0 to num - 1 do
      let nd = Circuit.node c i in
      if
        Gate.is_combinational nd.Circuit.kind
        && Array.length nd.Circuit.fanins > k
      then invalid_arg "Cover.run: gate fanin exceeds k (run Decompose first)"
    done;
    (* Nodes that must remain visible as signals: primary-output drivers and
       flip-flop D drivers. *)
    let must_root = Array.make num false in
    Array.iter (fun o -> if not (is_source c o) then must_root.(o) <- true)
      c.Circuit.outputs;
    for i = 0 to num - 1 do
      let nd = Circuit.node c i in
      if Gate.equal nd.Circuit.kind Gate.Dff then begin
        let d = nd.Circuit.fanins.(0) in
        if not (is_source c d) then must_root.(d) <- true
      end
    done;
    let referenced = Array.copy must_root in
    let order = Circuit.topological_order c in
    let luts = Vec.create () in
    let lut_of_root = Array.make num (-1) in
    (* Reverse topological order: a root's support marks deeper nodes
       referenced before they are themselves considered. *)
    for idx = Array.length order - 1 downto 0 do
      let r = order.(idx) in
      if referenced.(r) && not (is_source c r) then begin
        (* Grow the cone greedily. *)
        let in_cone = Hashtbl.create 16 in
        Hashtbl.add in_cone r ();
        let support = Hashtbl.create 8 in
        let add_support f = Hashtbl.replace support f () in
        Array.iter add_support (Circuit.node c r).Circuit.fanins;
        let absorbable f =
          (not (is_source c f))
          && (not must_root.(f))
          && Array.for_all
               (fun reader -> Hashtbl.mem in_cone reader)
               c.Circuit.fanouts.(f)
        in
        let try_absorb () =
          (* Candidate minimising the resulting support size. *)
          let best = ref None in
          Hashtbl.iter
            (fun f () ->
              if absorbable f then begin
                let gain_support =
                  Array.fold_left
                    (fun acc g ->
                      if Hashtbl.mem support g || Hashtbl.mem in_cone g then acc
                      else acc + 1)
                    0
                    (Circuit.node c f).Circuit.fanins
                in
                let new_size = Hashtbl.length support - 1 + gain_support in
                if new_size <= k then
                  match !best with
                  | Some (_, s) when s <= new_size -> ()
                  | _ -> best := Some (f, new_size)
              end)
            support;
          match !best with
          | None -> false
          | Some (f, _) ->
              Hashtbl.remove support f;
              Hashtbl.add in_cone f ();
              Array.iter
                (fun g -> if not (Hashtbl.mem in_cone g) then add_support g)
                (Circuit.node c f).Circuit.fanins;
              true
        in
        while try_absorb () do
          ()
        done;
        (* Split support into constants (folded) and real pins. *)
        let pins = ref [] in
        Hashtbl.iter
          (fun f () ->
            match (Circuit.node c f).Circuit.kind with
            | Gate.Const0 | Gate.Const1 -> Hashtbl.add in_cone f ()
            | _ -> pins := f :: !pins)
          support;
        let support_arr = Array.of_list (List.sort compare !pins) in
        assert (Array.length support_arr <= k);
        let table = cone_table c ~root:r ~support:support_arr ~in_cone in
        let lut =
          {
            root = r;
            support = support_arr;
            table;
            cone_size = Hashtbl.length in_cone;
          }
        in
        lut_of_root.(r) <- Vec.push luts lut;
        Array.iter (fun f -> referenced.(f) <- true) support_arr
      end
    done;
    { luts = Vec.to_array luts; lut_of_root }
end

(* The first [Mapped.validate], kept verbatim as the reference for the
   error each corruption reports (but for two [output] annotations, which
   the labels of [Mapped.stats] make necessary under the [open]). *)
module Reference_mapped = struct
  open Mapped

  let validate t =
    let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
    let driver = Array.make t.num_nets (-1) in
    let rec check_clbs i =
      if i >= Array.length t.clbs then Ok ()
      else begin
        let c = t.clbs.(i) in
        let n_in = Array.length c.inputs in
        let distinct arr =
          let l = Array.to_list arr in
          List.length (List.sort_uniq compare l) = List.length l
        in
        if n_in > max_inputs then err "CLB %s: %d inputs" c.name n_in
        else if not (distinct c.inputs) then err "CLB %s: duplicate input nets" c.name
        else if Array.length c.outputs = 0 || Array.length c.outputs > max_outputs
        then err "CLB %s: %d outputs" c.name (Array.length c.outputs)
        else if
          Array.exists
            (fun (o : output) -> Array.exists (fun p -> p < 0 || p >= n_in) o.pins)
            c.outputs
        then err "CLB %s: pin index out of range" c.name
        else if Array.exists (fun (o : output) -> not (distinct o.pins)) c.outputs then
          err "CLB %s: duplicate pins in one output" c.name
        else if
          n_in > 0
          &&
          let union =
            Array.to_list c.outputs
            |> List.mapi (fun o _ -> support_mask c o)
            |> List.fold_left Bitvec.union Bitvec.empty
          in
          not (Bitvec.equal union (Bitvec.full n_in))
        then err "CLB %s: unused input pin" c.name
        else begin
          let dup = ref None in
          Array.iter
            (fun o ->
              if o.net < 0 || o.net >= t.num_nets then dup := Some "net range"
              else if driver.(o.net) >= 0 then dup := Some "double driver"
              else driver.(o.net) <- i)
            c.outputs;
          match !dup with
          | Some msg -> err "CLB %s: %s" c.name msg
          | None -> check_clbs (i + 1)
        end
      end
    in
    match check_clbs 0 with
    | Error _ as e -> e
    | Ok () -> (
        let bad = ref None in
        Array.iter
          (fun n ->
            if driver.(n) >= 0 then bad := Some n else driver.(n) <- -2)
          t.pi_nets;
        match !bad with
        | Some n -> err "net %s driven by both a pad and a CLB" t.net_names.(n)
        | None ->
            let rec check_driven n =
              if n >= t.num_nets then Ok ()
              else if driver.(n) = -1 then err "net %s has no driver" t.net_names.(n)
              else check_driven (n + 1)
            in
            check_driven 0)
end

(* ------------------------------------------------------------------ *)
(* Decompose                                                          *)
(* ------------------------------------------------------------------ *)

let test_decompose_reduces_fanin () =
  let c = Generator.ecc ~data_bits:16 () in
  let d = Decompose.run c in
  let s = Stats.compute d in
  checkb "fanin <= 2" true (s.Stats.max_fanin <= 2);
  checkb "equivalent" true (equivalent c d)

let test_decompose_wide_gates () =
  (* One wide gate of each inverted kind. *)
  let b = Circuit.Builder.create () in
  let ins = Array.init 7 (fun i -> Circuit.Builder.input b (Printf.sprintf "i%d" i)) in
  List.iter
    (fun kind -> Circuit.Builder.mark_output b (Test_util.gate b kind ins))
    [ Gate.And; Gate.Nand; Gate.Or; Gate.Nor; Gate.Xor; Gate.Xnor ];
  let c = Circuit.Builder.finish b in
  let d = Decompose.run c in
  checkb "fanin <= 2" true ((Stats.compute d).Stats.max_fanin <= 2);
  checkb "equivalent" true (equivalent c d)

let test_decompose_preserves_dffs () =
  let c =
    Generator.clustered
      { Generator.default_clustered with clusters = 3; gates_per_cluster = 30 }
  in
  let d = Decompose.run c in
  checki "same flip-flop count" (Circuit.num_dff c) (Circuit.num_dff d);
  checkb "equivalent" true (equivalent c d)

let test_decompose_name_collision_safe () =
  (* Source names that look like generated names must not clash with the
     decomposition's fresh tree nodes. *)
  let b = Circuit.Builder.create () in
  let ins = Array.init 5 (fun i -> Circuit.Builder.input b (Printf.sprintf "$d%d" i)) in
  let g = Circuit.Builder.gate b ~name:"$d99" Gate.And ins in
  Circuit.Builder.mark_output b g;
  let c = Circuit.Builder.finish b in
  let d = Decompose.run c in
  checkb "equivalent" true (equivalent c d)

let qcheck_decompose_equivalence =
  QCheck.Test.make ~name:"decompose preserves behaviour" ~count:30
    QCheck.small_int
    (fun seed ->
      let rng = Rng.create seed in
      let c =
        Generator.random ~rng ~num_inputs:6 ~num_gates:40 ~num_dff:4
          ~num_outputs:5 ()
      in
      let d = Decompose.run c in
      (Stats.compute d).Stats.max_fanin <= 2 && equivalent c d)

(* ------------------------------------------------------------------ *)
(* Cover                                                              *)
(* ------------------------------------------------------------------ *)


let test_cover_basic () =
  let c = Decompose.run (Generator.c17 ()) in
  let cover = Cover.run c in
  (* Every LUT obeys the input budget and covers a live root. *)
  Array.iter
    (fun lut ->
      checkb "support <= 4" true (Array.length lut.Cover.support <= 4);
      checkb "registered root" true (cover.Cover.lut_of_root.(lut.Cover.root) >= 0))
    cover.Cover.luts;
  (* c17 fits in very few 4-LUTs: 2 outputs, 5 inputs -> at most 4. *)
  checkb "compresses" true (Array.length cover.Cover.luts <= 4)

let test_cover_rejects_wide () =
  let b = Circuit.Builder.create () in
  let ins = Array.init 6 (fun i -> Circuit.Builder.input b (Printf.sprintf "i%d" i)) in
  let g = Test_util.gate b Gate.And ins in
  Circuit.Builder.mark_output b g;
  let c = Circuit.Builder.finish b in
  Alcotest.check_raises "wide gate"
    (Invalid_argument "Cover.run: gate fanin exceeds k (run Decompose first)")
    (fun () -> ignore (Cover.run c))

let test_cover_lut_tables () =
  (* A LUT covering XOR(AND(a,b), c) must reproduce that function. *)
  let b = Circuit.Builder.create () in
  let a = Circuit.Builder.input b "a" in
  let bb = Circuit.Builder.input b "b" in
  let cc = Circuit.Builder.input b "c" in
  let g1 = Test_util.gate b Gate.And [| a; bb |] in
  let g2 = Test_util.gate b Gate.Xor [| g1; cc |] in
  Circuit.Builder.mark_output b g2;
  let c = Circuit.Builder.finish b in
  let cover = Cover.run c in
  checki "single LUT" 1 (Array.length cover.Cover.luts);
  let lut = cover.Cover.luts.(0) in
  checki "3 pins" 3 (Array.length lut.Cover.support);
  (* Exhaustive functional check through eval_lut. *)
  for v = 0 to 7 do
    let value_of node =
      (* support is sorted by node id = a, b, c creation order *)
      let idx = ref (-1) in
      Array.iteri (fun k s -> if s = node then idx := k) lut.Cover.support;
      v land (1 lsl !idx) <> 0
    in
    let expect = (value_of a && value_of bb) <> value_of cc in
    let pins = Array.map (fun s -> value_of s) lut.Cover.support in
    checkb "table" expect (Cover.eval_lut lut pins)
  done

let test_cover_dead_logic_vanishes () =
  let b = Circuit.Builder.create () in
  let a = Circuit.Builder.input b "a" in
  let live = Test_util.gate b Gate.Not [| a |] in
  let _dead = Test_util.gate b Gate.Not [| live |] in
  Circuit.Builder.mark_output b live;
  let c = Circuit.Builder.finish b in
  let cover = Cover.run c in
  checki "only the live LUT" 1 (Array.length cover.Cover.luts)

let test_cover_k_range () =
  let c = Decompose.run (Generator.c17 ()) in
  List.iter
    (fun k ->
      Alcotest.check_raises (Printf.sprintf "k = %d" k)
        (Invalid_argument
           (Printf.sprintf "Cover.run: LUT size k = %d outside 1..5" k))
        (fun () -> ignore (Cover.run ~k c)))
    [ -1; 0; 6; 7 ];
  List.iter (fun k -> ignore (Cover.run ~k c)) [ 2; 3; 4; 5 ];
  (* The mapper fails at the covering step, not after building an
     illegal netlist. *)
  Alcotest.check_raises "Mapper.map, lut_inputs = 6"
    (Invalid_argument "Cover.run: LUT size k = 6 outside 1..5") (fun () ->
      ignore
        (Mapper.map
           ~options:{ Mapper.default_options with lut_inputs = 6 }
           (Generator.c17 ())))

(* A value, or the exception computing it raised: equal outcomes mean the
   same result or the same error. *)
let outcome f =
  match f () with v -> Ok v | exception e -> Error (Printexc.to_string e)

let suite_circuits () =
  List.map
    (fun e -> Lazy.force e.Experiments.Suite.circuit)
    (Experiments.Suite.all ())

(* Random gates of fanin 1-3 over earlier signals (repeats allowed), both
   constants and flip-flops: wide enough that k = 2 rejects some, and
   with constants that covering folds into the cones reading them. *)
let random_with_constants seed =
  let rng = Rng.create seed in
  let b = Circuit.Builder.create () in
  let pool = Vec.create () in
  for i = 0 to Rng.int_in rng 1 6 do
    ignore (Vec.push pool (Circuit.Builder.input b (Printf.sprintf "i%d" i)))
  done;
  let one = Test_util.gate b Gate.Const1 [||] in
  ignore (Vec.push pool (Test_util.gate b Gate.Const0 [||]));
  ignore (Vec.push pool one);
  let dffs =
    Array.init (Rng.int rng 4) (fun k ->
        Circuit.Builder.dff_placeholder b (Printf.sprintf "q%d" k))
  in
  Array.iter (fun q -> ignore (Vec.push pool q)) dffs;
  let pick () = Vec.get pool (Rng.int rng (Vec.length pool)) in
  let kinds =
    [| Gate.And; Gate.Nand; Gate.Or; Gate.Nor; Gate.Xor; Gate.Xnor |]
  in
  let gates = Vec.create () in
  for _ = 1 to Rng.int_in rng 1 80 do
    let arity = Rng.int_in rng 1 3 in
    let kind =
      if arity = 1 then if Rng.bool rng then Gate.Not else Gate.Buf
      else Rng.pick rng kinds
    in
    let g = Test_util.gate b kind (Array.init arity (fun _ -> pick ())) in
    ignore (Vec.push pool g);
    ignore (Vec.push gates g)
  done;
  Array.iter (fun q -> Circuit.Builder.connect_dff b q (pick ())) dffs;
  for _ = 1 to Rng.int_in rng 1 6 do
    Circuit.Builder.mark_output b (Vec.get gates (Rng.int rng (Vec.length gates)))
  done;
  Circuit.Builder.mark_output b one;
  Circuit.Builder.finish b

let qcheck_cover_reference =
  QCheck.Test.make ~name:"cover = reference (random circuits, k = 1..5)"
    ~count:150
    QCheck.(pair small_int (int_range 1 5))
    (fun (seed, k) ->
      let rng = Rng.create ((seed * 31) + 3) in
      let generated =
        Generator.random ~rng ~num_inputs:(Rng.int_in rng 1 8)
          ~num_gates:(Rng.int_in rng 1 150) ~num_dff:(Rng.int rng 8)
          ~num_outputs:(Rng.int_in rng 1 8) ()
      in
      let with_constants = random_with_constants seed in
      List.for_all
        (fun c ->
          outcome (fun () -> Cover.run ~k c)
          = outcome (fun () -> Reference_cover.run ~k c))
        [
          Decompose.run generated;
          with_constants;
          Decompose.run with_constants;
        ])

let test_cover_reference_suite () =
  List.iter
    (fun c ->
      let d = Decompose.run c in
      checkb c.Circuit.name true (Cover.run d = Reference_cover.run d))
    (suite_circuits ())

(* Covering allocates its LUTs plus node-indexed scratch, packing its
   CLBs plus slot- and net-indexed scratch, and the whole mapper little
   more than the netlist it returns; the first definitions read 3.8 and
   6.2 Mw on s38584 for covering and the mapper. A library sort of each
   slot's nets (0.37 Mw for packing) and a decomposition that built
   fanin lists and grew its builder (0.90 Mw for the mapper) fail the
   packing and mapper bounds. *)
let s38584 () =
  Lazy.force (Option.get (Experiments.Suite.find "s38584")).Experiments.Suite.circuit

let test_cover_allocation () =
  let d = Decompose.run (s38584 ()) in
  let words = Test_util.words_during (fun () -> ignore (Cover.run d)) in
  if words > 1.0e6 then
    Alcotest.failf "Cover.run allocated %.2f Mw on s38584 (bound 1.0)"
      (words /. 1e6)

let test_pack_allocation () =
  let d = Decompose.run (s38584 ()) in
  let cover = Cover.run d in
  let words = Test_util.words_during (fun () -> ignore (Pack.run d cover)) in
  if words > 0.30e6 then
    Alcotest.failf "Pack.run allocated %.3f Mw on s38584 (bound 0.30)"
      (words /. 1e6)

let test_mapper_allocation () =
  let c = s38584 () in
  let words = Test_util.words_during (fun () -> ignore (Mapper.map c)) in
  if words > 0.75e6 then
    Alcotest.failf "Mapper.map allocated %.2f Mw on s38584 (bound 0.75)"
      (words /. 1e6)

(* ------------------------------------------------------------------ *)
(* Full mapping                                                       *)
(* ------------------------------------------------------------------ *)

let map_ok c =
  let m = Mapper.map c in
  (match Mapped.validate m with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("mapped netlist invalid: " ^ e));
  m

let test_map_c17 () =
  let c = Generator.c17 () in
  let m = map_ok c in
  checkb "equivalent" true (Mapped.equivalent c m);
  let s = Mapped.stats m in
  checki "IOBs = pads" 7 s.Mapped.iobs;
  checkb "tiny CLB count" true (s.Mapped.clbs <= 2)

let test_map_structural_generators () =
  List.iter
    (fun c ->
      let m = map_ok c in
      checkb (c.Circuit.name ^ " equivalent") true (Mapped.equivalent c m))
    [
      Generator.ripple_adder ~bits:8 ();
      Generator.multiplier ~bits:6 ();
      Generator.alu ~bits:4 ();
      Generator.ecc ~data_bits:16 ();
      Generator.adder_comparator ~bits:6 ();
    ]

let test_map_sequential () =
  let c =
    Generator.clustered
      { Generator.default_clustered with clusters = 4; gates_per_cluster = 40 }
  in
  let m = map_ok c in
  checkb "sequential equivalence over 64 cycles" true
    (Mapped.equivalent ~vectors:64 c m);
  let s = Mapped.stats m in
  checkb "flip-flops survive" true (s.Mapped.dffs >= Circuit.num_dff c);
  checki "flip-flops exactly preserved" (Circuit.num_dff c) s.Mapped.dffs

let test_map_produces_multi_output_cells () =
  (* The whole point: pairing yields two-output CLBs with distinct
     per-output supports, i.e. cells with replication potential. *)
  let c = Generator.multiplier ~bits:8 () in
  let m = map_ok c in
  let multi =
    Array.fold_left
      (fun acc clb -> if Array.length clb.Mapped.outputs = 2 then acc + 1 else acc)
      0 m.Mapped.clbs
  in
  checkb "some paired CLBs" true (multi > 0);
  (* And at least one has an input private to one output (psi > 0). *)
  let has_private =
    Array.exists
      (fun clb ->
        Array.length clb.Mapped.outputs = 2
        &&
        let s0 = Mapped.support_mask clb 0 and s1 = Mapped.support_mask clb 1 in
        (not (Bitvec.is_empty (Bitvec.diff s0 s1)))
        || not (Bitvec.is_empty (Bitvec.diff s1 s0)))
      m.Mapped.clbs
  in
  checkb "some cell with private inputs" true has_private

let test_map_no_pairing_option () =
  let c = Generator.ripple_adder ~bits:8 () in
  let paired = Mapper.map c in
  let single =
    Mapper.map ~options:{ Mapper.default_options with pair = false } c
  in
  checkb "pairing reduces CLB count" true
    ((Mapped.stats paired).Mapped.clbs < (Mapped.stats single).Mapped.clbs);
  Array.iter
    (fun clb -> checki "single output" 1 (Array.length clb.Mapped.outputs))
    single.Mapped.clbs;
  checkb "unpaired still equivalent" true (Mapped.equivalent c single)

let test_map_pass_through_ff () =
  (* A flip-flop fed directly by a primary input must become a
     pass-through registered CLB. *)
  let b = Circuit.Builder.create () in
  let a = Circuit.Builder.input b "a" in
  let q = Circuit.Builder.dff_placeholder b "q" in
  Circuit.Builder.connect_dff b q a;
  Circuit.Builder.mark_output b q;
  let c = Circuit.Builder.finish b in
  let m = map_ok c in
  checkb "equivalent" true (Mapped.equivalent c m);
  checki "one CLB" 1 (Array.length m.Mapped.clbs)

let test_map_ff_fusion () =
  (* q = DFF(XOR(a,b)): the XOR LUT fuses into the FF -> one CLB, and the
     intermediate net disappears. *)
  let b = Circuit.Builder.create () in
  let a = Circuit.Builder.input b "a" in
  let bb = Circuit.Builder.input b "b" in
  let d = Test_util.gate b Gate.Xor [| a; bb |] in
  let q = Circuit.Builder.dff_placeholder b "q" in
  Circuit.Builder.connect_dff b q d;
  Circuit.Builder.mark_output b q;
  let c = Circuit.Builder.finish b in
  let m = map_ok c in
  checki "one CLB" 1 (Array.length m.Mapped.clbs);
  checki "nets: a, b, q only" 3 m.Mapped.num_nets;
  checkb "equivalent" true (Mapped.equivalent c m)

let test_map_shared_d_not_fused () =
  (* The D driver feeds two FFs: it must stay a visible net. *)
  let b = Circuit.Builder.create () in
  let a = Circuit.Builder.input b "a" in
  let bb = Circuit.Builder.input b "b" in
  let d = Test_util.gate b Gate.And [| a; bb |] in
  let q1 = Circuit.Builder.dff_placeholder b "q1" in
  let q2 = Circuit.Builder.dff_placeholder b "q2" in
  Circuit.Builder.connect_dff b q1 d;
  Circuit.Builder.connect_dff b q2 d;
  Circuit.Builder.mark_output b q1;
  Circuit.Builder.mark_output b q2;
  let c = Circuit.Builder.finish b in
  let m = map_ok c in
  checkb "equivalent" true (Mapped.equivalent c m);
  let s = Mapped.stats m in
  checki "two FFs" 2 s.Mapped.dffs

let test_map_po_driver_not_fused () =
  (* The D driver is also a primary output: fusing it away would lose the
     PO net. *)
  let b = Circuit.Builder.create () in
  let a = Circuit.Builder.input b "a" in
  let d = Circuit.Builder.gate b ~name:"d" Gate.Not [| a |] in
  let q = Circuit.Builder.dff_placeholder b "q" in
  Circuit.Builder.connect_dff b q d;
  Circuit.Builder.mark_output b d;
  Circuit.Builder.mark_output b q;
  let c = Circuit.Builder.finish b in
  let m = map_ok c in
  checkb "equivalent" true (Mapped.equivalent c m)

let qcheck_map_equivalence =
  QCheck.Test.make ~name:"mapping preserves behaviour (random circuits)"
    ~count:25 QCheck.small_int
    (fun seed ->
      let rng = Rng.create (seed * 13 + 1) in
      let c =
        Generator.random ~rng ~num_inputs:6 ~num_gates:60 ~num_dff:5
          ~num_outputs:6 ()
      in
      let m = Mapper.map c in
      Result.is_ok (Mapped.validate m) && Mapped.equivalent ~vectors:32 c m)

let qcheck_map_legality =
  QCheck.Test.make ~name:"mapped CLBs obey XC3000 limits" ~count:25
    QCheck.small_int
    (fun seed ->
      let rng = Rng.create (seed * 17 + 5) in
      let c =
        Generator.random ~rng ~num_inputs:8 ~num_gates:80 ~num_dff:6
          ~num_outputs:8 ()
      in
      let m = Mapper.map c in
      Array.for_all
        (fun clb ->
          Array.length clb.Mapped.inputs <= Mapped.max_inputs
          && Array.length clb.Mapped.outputs <= Mapped.max_outputs)
        m.Mapped.clbs)

(* ------------------------------------------------------------------ *)
(* Mapped netlist legality against the reference                      *)
(* ------------------------------------------------------------------ *)

(* CLBs to corrupt: [i], the first from a random start with an input and
   outputs that all read pins, and [j], another CLB with an output whose
   net [i] can clash with. *)
let pick_clbs rng (m : Mapped.t) =
  let n_clbs = Array.length m.Mapped.clbs in
  let first_from start ok =
    let rec go k =
      if k = n_clbs then None
      else
        let j = (start + k) mod n_clbs in
        if ok j then Some j else go (k + 1)
    in
    go 0
  in
  let usable j =
    let c = m.Mapped.clbs.(j) in
    Array.length c.Mapped.inputs > 0
    && Array.length c.Mapped.outputs > 0
    && Array.for_all
         (fun (o : Mapped.output) -> Array.length o.Mapped.pins > 0)
         c.Mapped.outputs
  in
  match first_from (Rng.int rng n_clbs) usable with
  | None -> None
  | Some i ->
      first_from (Rng.int rng n_clbs) (fun j ->
          j <> i && Array.length m.Mapped.clbs.(j).Mapped.outputs > 0)
      |> Option.map (fun j -> (i, j))

let corrupt_at kind rng (m : Mapped.t) i j =
  let c = m.Mapped.clbs.(i) in
  let clbs = Array.copy m.Mapped.clbs in
  let with_clb (c' : Mapped.clb) =
    clbs.(i) <- c';
    { m with Mapped.clbs }
  in
  let n_in = Array.length c.Mapped.inputs in
  let some_net () = Rng.int rng m.Mapped.num_nets in
  let o = Rng.int rng (Array.length c.Mapped.outputs) in
  let with_output (out : Mapped.output) =
    let outputs = Array.copy c.Mapped.outputs in
    outputs.(o) <- out;
    with_clb { c with Mapped.outputs }
  in
  let out = c.Mapped.outputs.(o) in
  let with_pins pins = with_output { out with Mapped.pins } in
  let other_driven () = m.Mapped.clbs.(j).Mapped.outputs.(0).Mapped.net in
  match kind with
  | `Too_many_inputs ->
      with_clb
        {
          c with
          Mapped.inputs =
            Array.append c.Mapped.inputs
              (Array.init (max 1 (6 - n_in) + Rng.int rng 2) (fun _ -> some_net ()));
        }
  | `Duplicate_input ->
      with_clb
        {
          c with
          Mapped.inputs = Array.append c.Mapped.inputs [| c.Mapped.inputs.(0) |];
        }
  | `No_outputs -> with_clb { c with Mapped.outputs = [||] }
  | `Three_outputs ->
      with_clb
        {
          c with
          Mapped.outputs = Array.append c.Mapped.outputs [| out; out; out |];
        }
  | `Pin_out_of_range ->
      with_pins
        (Array.append out.Mapped.pins
           [| (if Rng.bool rng then -1 - Rng.int rng 3 else n_in + Rng.int rng 3) |])
  | `Duplicate_pin ->
      with_pins (Array.append out.Mapped.pins [| out.Mapped.pins.(0) |])
  | `Unused_pin ->
      with_clb
        { c with Mapped.inputs = Array.append c.Mapped.inputs [| some_net () |] }
  | `Net_out_of_range ->
      with_output
        {
          out with
          Mapped.net =
            (if Rng.bool rng then -1 else m.Mapped.num_nets + Rng.int rng 2);
        }
  | `Double_driver -> with_output { out with Mapped.net = other_driven () }
  | `Pad_drives_clb_net ->
      let pi_nets = Array.copy m.Mapped.pi_nets in
      pi_nets.(Rng.int rng (Array.length pi_nets)) <- other_driven ();
      { m with Mapped.pi_nets }
  | `Undriven_net ->
      {
        m with
        Mapped.num_nets = m.Mapped.num_nets + 1;
        net_names = Array.append m.Mapped.net_names [| "undriven" |];
      }

(* One hand corruption of a mapped netlist: a fresh copy with CLB [i] (or,
   for the last two kinds, a pad or the net table) broken in the named
   way, other CLBs shared. Applied to a legal netlist, every kind makes it
   illegal. Without CLBs to pick, the netlist comes back unchanged. *)
let corrupt kind rng (m : Mapped.t) =
  match pick_clbs rng m with
  | None -> m
  | Some (i, j) -> corrupt_at kind rng m i j

let corruptions =
  [
    `Too_many_inputs;
    `Duplicate_input;
    `No_outputs;
    `Three_outputs;
    `Pin_out_of_range;
    `Duplicate_pin;
    `Unused_pin;
    `Net_out_of_range;
    `Double_driver;
    `Pad_drives_clb_net;
    `Undriven_net;
  ]

let same_validation (m : Mapped.t) =
  outcome (fun () -> Mapped.validate m)
  = outcome (fun () -> Reference_mapped.validate m)

let test_validate_corruptions () =
  let m = Mapper.map (Generator.multiplier ~bits:6 ()) in
  checkb "legal base" true (Result.is_ok (Mapped.validate m));
  checkb "legal base, reference" true (same_validation m);
  List.iteri
    (fun k kind ->
      for seed = 0 to 19 do
        let m' = corrupt kind (Rng.create ((k * 100) + seed)) m in
        checkb "illegal" true (Result.is_error (Mapped.validate m'));
        checkb "same error as the reference" true (same_validation m');
        (* Then every second kind on top: which fault is reported first. *)
        List.iter
          (fun kind' ->
            checkb "same error as the reference, two faults" true
              (same_validation (corrupt kind' (Rng.create seed) m')))
          corruptions
      done)
    corruptions

let qcheck_validate_reference =
  QCheck.Test.make ~name:"validate = reference (stacked corruptions)"
    ~count:300 QCheck.small_int (fun seed ->
      let rng = Rng.create (seed + 77) in
      let c =
        Generator.random ~rng ~num_inputs:(Rng.int_in rng 1 8)
          ~num_gates:(Rng.int_in rng 2 60) ~num_dff:(Rng.int rng 4)
          ~num_outputs:(Rng.int_in rng 1 6) ()
      in
      let m = ref (Mapper.map c) in
      let ok = ref (same_validation !m) in
      for _ = 1 to Rng.int_in rng 1 3 do
        let kind = List.nth corruptions (Rng.int rng (List.length corruptions)) in
        m := corrupt kind rng !m;
        ok := !ok && same_validation !m
      done;
      !ok)

(* Ties in covering were once broken by [Hashtbl.iter] order, so a
   randomized hash seed ([OCAMLRUNPARAM=R]) changed the mapping. The
   randomization is process-global: this case runs last. *)
let test_map_hash_seed_independent () =
  let circuits = suite_circuits () in
  let before = List.map Mapper.map circuits in
  Hashtbl.randomize ();
  List.iter2
    (fun c m -> checkb c.Circuit.name true (Mapper.map c = m))
    circuits before

(* ------------------------------------------------------------------ *)
(* Hypergraph bridge                                                  *)
(* ------------------------------------------------------------------ *)

let test_to_hypergraph () =
  let c = Generator.alu ~bits:4 () in
  let m = map_ok c in
  let h = Mapper.to_hypergraph m in
  checkb "valid hypergraph" true (Result.is_ok (Hypergraph.validate h));
  checki "one cell per CLB" (Array.length m.Mapped.clbs) (Hypergraph.num_cells h);
  checki "area = CLB count" (Array.length m.Mapped.clbs) (Hypergraph.total_area h);
  (* Pads are external. *)
  Array.iter
    (fun n -> checkb "PI external" true h.Hypergraph.net_external.(n))
    m.Mapped.pi_nets;
  Array.iter
    (fun n -> checkb "PO external" true h.Hypergraph.net_external.(n))
    m.Mapped.po_nets

let test_stats_plausibility () =
  let c = Generator.multiplier ~bits:8 () in
  let m = map_ok c in
  let s = Mapped.stats m in
  let src = Stats.compute c in
  checkb "mapping compresses gates into CLBs" true
    (s.Mapped.clbs < src.Stats.num_gates);
  checki "IOBs = PI + PO" (src.Stats.num_inputs + src.Stats.num_outputs)
    s.Mapped.iobs

(* ------------------------------------------------------------------ *)
(* Timing                                                             *)
(* ------------------------------------------------------------------ *)

let no_crossing _ = false

let test_timing_single_lut () =
  (* PI -> one CLB -> PO: wire + LUT + wire. *)
  let b = Circuit.Builder.create () in
  let a = Circuit.Builder.input b "a" in
  let bb = Circuit.Builder.input b "b" in
  let z = Circuit.Builder.gate b ~name:"z" Gate.And [| a; bb |] in
  Circuit.Builder.mark_output b z;
  let m = Mapper.map (Circuit.Builder.finish b) in
  let r = Timing.analyze ~crossing:no_crossing m in
  Alcotest.check (Alcotest.float 1e-9) "0.2 + 1.0 + 0.2"
    1.4 r.Timing.critical_delay;
  checki "no crossings" 0 r.Timing.critical_crossings;
  checki "path has two nets" 2 (List.length r.Timing.critical_path)

let test_timing_chain_depth () =
  (* A chain of XORs deep enough to span several LUT levels. *)
  let b = Circuit.Builder.create () in
  let x0 = Circuit.Builder.input b "x0" in
  let acc = ref x0 in
  for i = 1 to 12 do
    let xi = Circuit.Builder.input b (Printf.sprintf "x%d" i) in
    acc := Test_util.gate b Gate.Xor [| !acc; xi |]
  done;
  Circuit.Builder.mark_output b !acc;
  let m = Mapper.map (Circuit.Builder.finish b) in
  let r = Timing.analyze ~crossing:no_crossing m in
  (* 12 XOR2s fit in ceil(12/3) = 4+ LUT levels; at least 3 CLB hops. *)
  checkb "multi-level" true (r.Timing.critical_delay >= 3.0);
  (* Arrival times are monotone along the reported path. *)
  let rec monotone = function
    | a :: (b :: _ as rest) ->
        checkb "arrival increases" true
          (r.Timing.arrival.(a) <= r.Timing.arrival.(b));
        monotone rest
    | _ -> ()
  in
  monotone r.Timing.critical_path

let test_timing_crossing_penalty () =
  let c = Netlist.Generator.ripple_adder ~bits:8 () in
  let m = Mapper.map c in
  let local = Timing.analyze ~crossing:no_crossing m in
  let board = Timing.analyze ~crossing:(fun _ -> true) m in
  checkb "crossing nets slow the path" true
    (board.Timing.critical_delay > local.Timing.critical_delay);
  checkb "crossings counted" true (board.Timing.critical_crossings > 0)

let test_timing_registered_endpoint () =
  (* Logic that only feeds a flip-flop still defines the critical path. *)
  let b = Circuit.Builder.create () in
  let a = Circuit.Builder.input b "a" in
  let n1 = Test_util.gate b Gate.Not [| a |] in
  let q = Circuit.Builder.dff_placeholder b "q" in
  (* Deep-ish cone into the FF, shallow path to the PO. *)
  let n2 = Test_util.gate b Gate.Not [| n1 |] in
  let n3 = Test_util.gate b Gate.Xor [| n2; q |] in
  Circuit.Builder.connect_dff b q n3;
  Circuit.Builder.mark_output b q;
  let m = Mapper.map (Circuit.Builder.finish b) in
  let r = Timing.analyze ~crossing:no_crossing m in
  checkb "nonzero delay through FF cone" true (r.Timing.critical_delay > 0.0)

let test_timing_custom_model () =
  let c = Netlist.Generator.ripple_adder ~bits:4 () in
  let m = Mapper.map c in
  let model =
    { Timing.clb_delay = 2.0; local_net_delay = 0.0; board_net_delay = 0.0 }
  in
  let r = Timing.analyze ~model ~crossing:no_crossing m in
  (* With zero wire delay the critical delay is 2 x (LUT levels). *)
  checkb "integral multiple of 2" true
    (Float.rem r.Timing.critical_delay 2.0 < 1e-9);
  checkb "positive" true (r.Timing.critical_delay > 0.0)

let qc t = QCheck_alcotest.to_alcotest t

let () =
  Alcotest.run "techmap"
    [
      ( "decompose",
        [
          Alcotest.test_case "reduces fanin" `Quick test_decompose_reduces_fanin;
          Alcotest.test_case "wide inverted gates" `Quick test_decompose_wide_gates;
          Alcotest.test_case "preserves flip-flops" `Quick
            test_decompose_preserves_dffs;
          Alcotest.test_case "name collision safe" `Quick
            test_decompose_name_collision_safe;
          qc qcheck_decompose_equivalence;
        ] );
      ( "cover",
        [
          Alcotest.test_case "basic covering" `Quick test_cover_basic;
          Alcotest.test_case "rejects wide gates" `Quick test_cover_rejects_wide;
          Alcotest.test_case "truth tables" `Quick test_cover_lut_tables;
          Alcotest.test_case "dead logic vanishes" `Quick
            test_cover_dead_logic_vanishes;
          Alcotest.test_case "k outside 1..5" `Quick test_cover_k_range;
          qc qcheck_cover_reference;
          Alcotest.test_case "= reference on the suite" `Quick
            test_cover_reference_suite;
          Alcotest.test_case "allocation (s38584)" `Quick test_cover_allocation;
        ] );
      ( "validate",
        [
          Alcotest.test_case "corruptions = reference" `Quick
            test_validate_corruptions;
          qc qcheck_validate_reference;
        ] );
      ( "mapper",
        [
          Alcotest.test_case "c17" `Quick test_map_c17;
          Alcotest.test_case "structural generators" `Quick
            test_map_structural_generators;
          Alcotest.test_case "sequential circuits" `Quick test_map_sequential;
          Alcotest.test_case "multi-output cells appear" `Quick
            test_map_produces_multi_output_cells;
          Alcotest.test_case "pairing ablation" `Quick test_map_no_pairing_option;
          Alcotest.test_case "pass-through FF" `Quick test_map_pass_through_ff;
          Alcotest.test_case "FF fusion" `Quick test_map_ff_fusion;
          Alcotest.test_case "shared D not fused" `Quick test_map_shared_d_not_fused;
          Alcotest.test_case "PO driver not fused" `Quick
            test_map_po_driver_not_fused;
          qc qcheck_map_equivalence;
          qc qcheck_map_legality;
          Alcotest.test_case "pack allocation (s38584)" `Quick
            test_pack_allocation;
          Alcotest.test_case "allocation (s38584)" `Quick test_mapper_allocation;
        ] );
      ( "timing",
        [
          Alcotest.test_case "single LUT" `Quick test_timing_single_lut;
          Alcotest.test_case "chain depth" `Quick test_timing_chain_depth;
          Alcotest.test_case "crossing penalty" `Quick test_timing_crossing_penalty;
          Alcotest.test_case "registered endpoint" `Quick
            test_timing_registered_endpoint;
          Alcotest.test_case "custom model" `Quick test_timing_custom_model;
        ] );
      ( "hypergraph bridge",
        [
          Alcotest.test_case "to_hypergraph" `Quick test_to_hypergraph;
          Alcotest.test_case "stats plausibility" `Quick test_stats_plausibility;
        ] );
      (* Last: it randomizes every hash table created after it. *)
      ( "hash seed",
        [
          Alcotest.test_case "mapping independent of Hashtbl.randomize" `Quick
            test_map_hash_seed_independent;
        ] );
    ]
