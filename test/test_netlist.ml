(* Tests for the gate-level substrate: PRNG, growable arrays, gate algebra,
   circuit IR, .bench format, simulation, and the circuit generators. *)

open Netlist

let check = Alcotest.check
let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool

(* ------------------------------------------------------------------ *)
(* Rng                                                                *)
(* ------------------------------------------------------------------ *)

let test_rng_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Rng.next_int64 a) (Rng.next_int64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let differs = ref false in
  for _ = 1 to 10 do
    if not (Int64.equal (Rng.next_int64 a) (Rng.next_int64 b)) then differs := true
  done;
  checkb "different seeds differ" true !differs

let test_rng_copy () =
  let a = Rng.create 7 in
  ignore (Rng.next_int64 a);
  let b = Rng.copy a in
  checki "copy continues the stream" (Rng.int a 1000) (Rng.int b 1000)

let test_rng_bounds () =
  let rng = Rng.create 3 in
  for _ = 1 to 1000 do
    let x = Rng.int rng 17 in
    checkb "int in range" true (x >= 0 && x < 17);
    let y = Rng.int_in rng 5 9 in
    checkb "int_in in range" true (y >= 5 && y <= 9);
    let f = Rng.float rng 2.5 in
    checkb "float in range" true (f >= 0.0 && f < 2.5)
  done

let test_rng_sample () =
  let rng = Rng.create 11 in
  let s = Rng.sample rng 10 20 in
  checki "sample size" 10 (Array.length s);
  let sorted = Array.copy s in
  Array.sort compare sorted;
  for i = 1 to 9 do
    checkb "distinct" true (sorted.(i) <> sorted.(i - 1))
  done;
  Array.iter (fun x -> checkb "in range" true (x >= 0 && x < 20)) s

let test_rng_shuffle_permutes () =
  let rng = Rng.create 5 in
  let arr = Array.init 50 Fun.id in
  Rng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  check Alcotest.(array int) "is a permutation" (Array.init 50 Fun.id) sorted

let test_rng_invalid () =
  let rng = Rng.create 1 in
  Alcotest.check_raises "int 0" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0));
  Alcotest.check_raises "empty range" (Invalid_argument "Rng.int_in: empty range")
    (fun () -> ignore (Rng.int_in rng 3 2));
  let bad_sample = Invalid_argument "Rng.sample: need 0 <= n <= bound" in
  Alcotest.check_raises "sample too big" bad_sample (fun () ->
      ignore (Rng.sample rng 5 4));
  Alcotest.check_raises "sample negative count" bad_sample (fun () ->
      ignore (Rng.sample rng (-1) 5));
  Alcotest.check_raises "sample negative bound" bad_sample (fun () ->
      ignore (Rng.sample rng (-2) (-1)))

(* The generator as it was with its state in a boxed [int64] field: the
   reference the unboxed one must match draw for draw. *)
module Rng_reference = struct
  type t = { mutable state : int64 }

  let golden_gamma = 0x9E3779B97F4A7C15L
  let create seed = { state = Int64.of_int seed }
  let copy t = { state = t.state }

  let mix z =
    let z =
      Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
        0xBF58476D1CE4E5B9L
    in
    let z =
      Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
        0x94D049BB133111EBL
    in
    Int64.logxor z (Int64.shift_right_logical z 31)

  let next_int64 t =
    t.state <- Int64.add t.state golden_gamma;
    mix t.state

  let split t = { state = next_int64 t }

  let int t bound =
    let raw = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2) in
    raw mod bound

  let int_in t lo hi = lo + int t (hi - lo + 1)
  let bool t = Int64.logand (next_int64 t) 1L = 1L

  let float t x =
    let raw = Int64.to_float (Int64.shift_right_logical (next_int64 t) 11) in
    x *. (raw /. 9007199254740992.0)

  let shuffle t arr =
    for i = Array.length arr - 1 downto 1 do
      let j = int t (i + 1) in
      let tmp = arr.(i) in
      arr.(i) <- arr.(j);
      arr.(j) <- tmp
    done

  let sample t n bound =
    let table = Array.init bound (fun i -> i) in
    for i = 0 to n - 1 do
      let j = int_in t i (bound - 1) in
      let tmp = table.(i) in
      table.(i) <- table.(j);
      table.(j) <- tmp
    done;
    Array.sub table 0 n
end

(* Random op sequences from one seed give equal results on both
   generators. [split] moves the sequence onto the child, so later ops
   draw from it; [copy] draws from the copy and leaves the original, which
   later ops then show was not advanced. *)
let qcheck_rng_matches_reference =
  QCheck.Test.make ~name:"Rng = boxed-state reference, op for op" ~count:300
    QCheck.(pair int (list (pair (int_bound 8) (int_range 1 1000))))
    (fun (seed, ops) ->
      let t = ref (Rng.create seed) and r = ref (Rng_reference.create seed) in
      List.for_all
        (fun (op, a) ->
          match op with
          | 0 -> Rng.int !t a = Rng_reference.int !r a
          | 1 -> Rng.int_in !t (-a) a = Rng_reference.int_in !r (-a) a
          | 2 -> Rng.bool !t = Rng_reference.bool !r
          | 3 ->
              let x = float_of_int a /. 7.0 in
              Rng.float !t x = Rng_reference.float !r x
          | 4 ->
              let p = float_of_int a /. 1000.0 in
              Rng.chance !t p = (Rng_reference.float !r 1.0 < p)
          | 5 ->
              t := Rng.split !t;
              r := Rng_reference.split !r;
              true
          | 6 ->
              Rng.int (Rng.copy !t) a
              = Rng_reference.int (Rng_reference.copy !r) a
          | 7 ->
              let xs = Array.init (a mod 40) Fun.id in
              let ys = Array.copy xs in
              Rng.shuffle !t xs;
              Rng_reference.shuffle !r ys;
              xs = ys
          | _ ->
              let bound = a mod 50 in
              let n = a mod (bound + 1) in
              Rng.sample !t n bound = Rng_reference.sample !r n bound)
        ops)

(* A boolean draw allocates nothing; [float 1.0 < p], its spelling before
   [chance], allocated the boxed state update, the boxed raw draw and the
   boxed result. *)
let test_rng_chance_allocation () =
  let rng = Rng.create 9 in
  let words =
    Test_util.words_during (fun () ->
        for _ = 1 to 10_000 do
          ignore (Rng.chance rng 0.5)
        done)
  in
  if words <> 0.0 then
    Alcotest.failf "10,000 Rng.chance draws allocated %.0f words" words

(* ------------------------------------------------------------------ *)
(* Vec                                                                *)
(* ------------------------------------------------------------------ *)

let test_vec_basic () =
  let v = Vec.create () in
  checki "empty" 0 (Vec.length v);
  for i = 0 to 99 do
    checki "push returns index" i (Vec.push v (i * 2))
  done;
  checki "length" 100 (Vec.length v);
  checki "get" 84 (Vec.get v 42);
  Vec.set v 42 (-1);
  checki "set" (-1) (Vec.get v 42);
  checki "fold" (Array.fold_left ( + ) 0 (Vec.to_array v))
    (Vec.fold_left ( + ) 0 v)

let test_vec_bounds () =
  let v = Vec.of_array [| 1; 2; 3 |] in
  Alcotest.check_raises "get oob" (Invalid_argument "Vec.get: index out of bounds")
    (fun () -> ignore (Vec.get v 3));
  Alcotest.check_raises "get neg" (Invalid_argument "Vec.get: index out of bounds")
    (fun () -> ignore (Vec.get v (-1)))

let test_vec_iteri () =
  let v = Vec.of_array [| 10; 20; 30 |] in
  let acc = ref [] in
  Vec.iteri (fun i x -> acc := (i, x) :: !acc) v;
  check Alcotest.(list (pair int int)) "iteri order" [ (0, 10); (1, 20); (2, 30) ]
    (List.rev !acc)

(* ------------------------------------------------------------------ *)
(* Gate                                                               *)
(* ------------------------------------------------------------------ *)

let test_gate_truth_tables () =
  let t = true and f = false in
  checkb "and" t (Gate.eval Gate.And [| t; t; t |]);
  checkb "and f" f (Gate.eval Gate.And [| t; f; t |]);
  checkb "nand" f (Gate.eval Gate.Nand [| t; t |]);
  checkb "or" t (Gate.eval Gate.Or [| f; f; t |]);
  checkb "nor" t (Gate.eval Gate.Nor [| f; f |]);
  checkb "xor odd" t (Gate.eval Gate.Xor [| t; t; t |]);
  checkb "xor even" f (Gate.eval Gate.Xor [| t; t |]);
  checkb "xnor" t (Gate.eval Gate.Xnor [| t; t |]);
  checkb "not" f (Gate.eval Gate.Not [| t |]);
  checkb "buf" t (Gate.eval Gate.Buf [| t |]);
  checkb "const0" f (Gate.eval Gate.Const0 [||]);
  checkb "const1" t (Gate.eval Gate.Const1 [||])

let test_gate_string_roundtrip () =
  List.iter
    (fun k ->
      match Gate.of_string (Gate.to_string k) with
      | Some k' -> checkb "roundtrip" true (Gate.equal k k')
      | None -> Alcotest.fail "of_string failed")
    [ Gate.Input; Gate.And; Gate.Nand; Gate.Or; Gate.Nor; Gate.Xor; Gate.Xnor;
      Gate.Not; Gate.Buf; Gate.Dff; Gate.Const0; Gate.Const1 ]

(* [of_substring] reads a range in place: it must agree with [of_string]
   of the copied range, spellings in any case and aliases included. *)
let qcheck_gate_of_substring =
  let spelling =
    QCheck.Gen.(
      oneofl
        [ "INPUT"; "and"; "Nand"; "oR"; "NOR"; "xor"; "XNOR"; "not"; "INV";
          "buf"; "BUFF"; "dff"; "Const0"; "CONST1"; "FROB"; ""; "AN"; "ANDD" ])
  in
  let gen =
    QCheck.Gen.(
      triple (string_size ~gen:printable (int_bound 3)) spelling
        (string_size ~gen:printable (int_bound 3)))
  in
  QCheck.Test.make ~name:"of_substring = of_string of the copy" ~count:300
    (QCheck.make gen) (fun (pre, word, post) ->
      let s = pre ^ word ^ post in
      List.for_all
        (fun (pos, len) ->
          Gate.of_substring s ~pos ~len = Gate.of_string (String.sub s pos len))
        [
          (String.length pre, String.length word);
          (0, String.length s);
          (0, String.length pre);
        ])

let test_gate_bad_arity () =
  Alcotest.check_raises "not/2" (Invalid_argument "Gate.eval: bad arity for NOT")
    (fun () -> ignore (Gate.eval Gate.Not [| true; false |]));
  Alcotest.check_raises "input" (Invalid_argument "Gate.eval: not a combinational gate")
    (fun () -> ignore (Gate.eval Gate.Input [||]))

let qcheck_demorgan =
  QCheck.Test.make ~name:"de morgan: NAND = OR of NOTs" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 6) bool)
    (fun bits ->
      let ins = Array.of_list bits in
      let nand = Gate.eval Gate.Nand ins in
      let or_of_nots = Gate.eval Gate.Or (Array.map not ins) in
      nand = or_of_nots)

let qcheck_xor_assoc =
  QCheck.Test.make ~name:"xor = parity" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 8) bool)
    (fun bits ->
      let ins = Array.of_list bits in
      Gate.eval Gate.Xor ins
      = (List.length (List.filter Fun.id bits) mod 2 = 1))

(* ------------------------------------------------------------------ *)
(* Circuit                                                            *)
(* ------------------------------------------------------------------ *)

let test_builder_basic () =
  let b = Circuit.Builder.create ~name:"t" () in
  let a = Circuit.Builder.input b "a" in
  let c = Circuit.Builder.input b "c" in
  let g = Circuit.Builder.gate b ~name:"g" Gate.And [| a; c |] in
  Circuit.Builder.mark_output b g;
  let circ = Circuit.Builder.finish b in
  checki "nodes" 3 (Circuit.num_nodes circ);
  checki "gates" 1 (Circuit.num_gates circ);
  checki "dff" 0 (Circuit.num_dff circ);
  checkb "validate" true (Result.is_ok (Circuit.validate circ));
  checkb "is_output" true (Circuit.is_output circ g);
  check Alcotest.(option int) "find" (Some g) (Circuit.find circ "g")

let test_builder_duplicate_name () =
  let b = Circuit.Builder.create () in
  ignore (Circuit.Builder.input b "a");
  Alcotest.check_raises "dup"
    (Invalid_argument "Circuit.Builder: duplicate signal name a") (fun () ->
      ignore (Circuit.Builder.input b "a"))

let test_builder_dff_feedback () =
  (* q feeds the logic computing its own D: legal sequential feedback. *)
  let b = Circuit.Builder.create () in
  let a = Circuit.Builder.input b "a" in
  let q = Circuit.Builder.dff_placeholder b "q" in
  let d = Test_util.gate b Gate.Xor [| a; q |] in
  Circuit.Builder.connect_dff b q d;
  Circuit.Builder.mark_output b q;
  let c = Circuit.Builder.finish b in
  checkb "validate" true (Result.is_ok (Circuit.validate c));
  checki "dff count" 1 (Circuit.num_dff c)

let test_builder_unconnected_dff () =
  let b = Circuit.Builder.create () in
  ignore (Circuit.Builder.input b "a");
  ignore (Circuit.Builder.dff_placeholder b "q");
  Alcotest.check_raises "unconnected"
    (Invalid_argument "Circuit.Builder.finish: flip-flop q never connected")
    (fun () -> ignore (Circuit.Builder.finish b))

let test_builder_spent_after_finish () =
  (* Sized exactly, so [finish] hands the node vector's storage to the
     circuit: every later write through the builder must be refused, or
     a [connect_dff] would rewrite a node of the finished circuit. *)
  let b = Circuit.Builder.create ~size:3 () in
  let a = Circuit.Builder.input b "a" in
  let q = Circuit.Builder.dff_placeholder b "q" in
  let d = Test_util.gate b Gate.Not [| a |] in
  Circuit.Builder.connect_dff b q d;
  Circuit.Builder.mark_output b q;
  let c = Circuit.Builder.finish b in
  let refused name f =
    Alcotest.check_raises name
      (Invalid_argument
         ("Circuit.Builder." ^ name ^ ": builder already finished"))
      f
  in
  refused "add" (fun () -> ignore (Circuit.Builder.input b "x"));
  refused "add" (fun () -> ignore (Test_util.gate b Gate.Not [| a |]));
  refused "add" (fun () -> ignore (Circuit.Builder.dff_placeholder b "p"));
  refused "connect_dff" (fun () -> Circuit.Builder.connect_dff b q a);
  refused "mark_output" (fun () -> Circuit.Builder.mark_output b d);
  refused "finish" (fun () -> ignore (Circuit.Builder.finish b));
  checki "nodes" 3 (Circuit.num_nodes c);
  checkb "q still reads d" true ((Circuit.node c q).Circuit.fanins = [| d |]);
  checkb "outputs" true (c.Circuit.outputs = [| q |]);
  checkb "validate" true (Result.is_ok (Circuit.validate c))

let test_levels_and_depth () =
  let b = Circuit.Builder.create () in
  let a = Circuit.Builder.input b "a" in
  let x = Test_util.gate b Gate.Not [| a |] in
  let y = Test_util.gate b Gate.Not [| x |] in
  let z = Test_util.gate b Gate.And [| a; y |] in
  Circuit.Builder.mark_output b z;
  let c = Circuit.Builder.finish b in
  let lv = Circuit.levels c in
  checki "input level" 0 lv.(a);
  checki "not level" 1 lv.(x);
  checki "depth" 3 (Circuit.depth c)

let test_topological_order () =
  let c = Generator.clustered Generator.default_clustered in
  let order = Circuit.topological_order c in
  checki "covers all nodes" (Circuit.num_nodes c) (Array.length order);
  let pos = Array.make (Circuit.num_nodes c) (-1) in
  Array.iteri (fun p i -> pos.(i) <- p) order;
  (* Every combinational gate appears after its fanins. *)
  for i = 0 to Circuit.num_nodes c - 1 do
    let nd = Circuit.node c i in
    match nd.Circuit.kind with
    | Gate.Input | Gate.Dff -> ()
    | _ ->
        Array.iter
          (fun f -> checkb "fanin precedes" true (pos.(f) < pos.(i)))
          nd.Circuit.fanins
  done

(* The first definitions of the order and the fanouts, with successor and
   reader lists: Kahn's pass visiting each node's consumers most recent
   first, and readers in ascending id order, repeats kept. *)
let reference_topological_order c =
  let nodes = c.Circuit.nodes in
  let n = Array.length nodes in
  let indeg = Array.make n 0 in
  let is_source (nd : Circuit.node) =
    match nd.Circuit.kind with
    | Gate.Input | Gate.Dff | Gate.Const0 | Gate.Const1 -> true
    | _ -> false
  in
  Array.iter
    (fun nd ->
      if not (is_source nd) then
        indeg.(nd.Circuit.id) <- Array.length nd.Circuit.fanins)
    nodes;
  let order = Array.make n (-1) in
  let head = ref 0 and tail = ref 0 in
  Array.iter
    (fun nd ->
      if indeg.(nd.Circuit.id) = 0 then begin
        order.(!tail) <- nd.Circuit.id;
        incr tail
      end)
    nodes;
  let succs = Array.make n [] in
  Array.iter
    (fun nd ->
      if not (is_source nd) then
        Array.iter
          (fun f -> succs.(f) <- nd.Circuit.id :: succs.(f))
          nd.Circuit.fanins)
    nodes;
  while !head < !tail do
    let u = order.(!head) in
    incr head;
    List.iter
      (fun v ->
        indeg.(v) <- indeg.(v) - 1;
        if indeg.(v) = 0 then begin
          order.(!tail) <- v;
          incr tail
        end)
      succs.(u)
  done;
  order

let reference_fanouts c =
  let lists = Array.make (Circuit.num_nodes c) [] in
  Array.iter
    (fun nd ->
      Array.iter
        (fun f -> lists.(f) <- nd.Circuit.id :: lists.(f))
        nd.Circuit.fanins)
    c.Circuit.nodes;
  Array.map (fun l -> Array.of_list (List.rev l)) lists

let qcheck_order_and_fanouts_reference =
  QCheck.Test.make ~name:"topological order and fanouts = list reference"
    ~count:200 QCheck.small_int (fun seed ->
      let rng = Rng.create (seed + 500) in
      let c =
        Generator.random ~rng ~num_inputs:(Rng.int_in rng 1 8)
          ~num_gates:(Rng.int_in rng 1 120) ~num_dff:(Rng.int rng 10)
          ~num_outputs:(Rng.int_in rng 1 8) ()
      in
      (* Re-parsing renumbers the nodes in text order. *)
      let reparsed =
        Result.get_ok (Bench_format.parse (Bench_format.to_string c))
      in
      List.for_all
        (fun c ->
          Circuit.topological_order c = reference_topological_order c
          && c.Circuit.fanouts = reference_fanouts c)
        [ c; reparsed ])

(* A random circuit description built through [Builder] and handed to
   [Reference_topo] as well: flip-flops (their D may read any node),
   constants, gates reading one node on two pins, and, when [cyclic], a
   few gates reading themselves, the one combinational cycle a builder
   can be given. *)
let random_description rng ~cyclic =
  let nodes = Vec.create () in
  let add name kind fanins =
    ignore
      (Vec.push nodes
         { References.Reference_topo.id = Vec.length nodes; name; kind; fanins })
  in
  for i = 0 to Rng.int_in rng 1 6 - 1 do
    add (Printf.sprintf "i%d" i) Gate.Input [||]
  done;
  let num_dff = Rng.int rng 5 in
  for k = 0 to num_dff - 1 do
    add (Printf.sprintf "q%d" k) Gate.Dff [||]
  done;
  for _ = 1 to Rng.int_in rng 1 60 do
    let id = Vec.length nodes in
    let name = Printf.sprintf "g%d" id in
    if Rng.int rng 10 = 0 then
      add name (if Rng.bool rng then Gate.Const1 else Gate.Const0) [||]
    else begin
      let arity = Rng.int_in rng 1 4 in
      let kind =
        if arity = 1 then if Rng.bool rng then Gate.Not else Gate.Buf
        else Rng.pick rng [| Gate.And; Gate.Nand; Gate.Or; Gate.Nor; Gate.Xor |]
      in
      let fanins = Array.init arity (fun _ -> Rng.int rng id) in
      if arity > 1 && Rng.int rng 4 = 0 then fanins.(1) <- fanins.(0);
      if cyclic && Rng.int rng 12 = 0 then
        fanins.(Rng.int rng arity) <- id;
      add name kind fanins
    end
  done;
  let n = Vec.length nodes in
  Vec.iteri
    (fun i (nd : References.Reference_topo.node) ->
      if Gate.equal nd.kind Gate.Dff then
        Vec.set nodes i { nd with fanins = [| Rng.int rng n |] })
    nodes;
  Vec.to_array nodes

let build_description (nodes : References.Reference_topo.node array) =
  let b = Circuit.Builder.create () in
  Array.iter
    (fun (nd : References.Reference_topo.node) ->
      ignore
        (match nd.kind with
        | Gate.Input -> Circuit.Builder.input b nd.name
        | Gate.Dff -> Circuit.Builder.dff_placeholder b nd.name
        | kind -> Circuit.Builder.gate b ~name:nd.name kind nd.fanins))
    nodes;
  Array.iter
    (fun (nd : References.Reference_topo.node) ->
      if Gate.equal nd.kind Gate.Dff then
        Circuit.Builder.connect_dff b nd.id nd.fanins.(0))
    nodes;
  Circuit.Builder.mark_output b (Array.length nodes - 1);
  Circuit.Builder.finish b

let qcheck_topo_oracle =
  QCheck.Test.make ~name:"topological order oracle"
    ~count:300 QCheck.small_int (fun seed ->
      let rng = Rng.create (seed + 900) in
      let nodes = random_description rng ~cyclic:(seed mod 3 = 0) in
      let expected = References.Reference_topo.topo_or_cycle nodes in
      match (build_description nodes, expected) with
      | c, Ok order ->
          Circuit.topological_order c = order && Circuit.validate c = Ok ()
      | _, Error names ->
          QCheck.Test.fail_reportf "built a cyclic circuit: %s"
            (String.concat ", " names)
      | exception Invalid_argument msg -> (
          match expected with
          | Ok _ -> QCheck.Test.fail_reportf "refused an acyclic circuit: %s" msg
          | Error names ->
              String.equal msg
                ("Circuit.Builder.finish: combinational cycle through "
                ^ String.concat ", " (List.filteri (fun i _ -> i < 5) names))))

(* ------------------------------------------------------------------ *)
(* Bench format                                                       *)
(* ------------------------------------------------------------------ *)

let test_bench_parse_c17_text () =
  let text =
    "# c17\n\
     INPUT(1)\nINPUT(2)\nINPUT(3)\nINPUT(6)\nINPUT(7)\n\
     OUTPUT(22)\nOUTPUT(23)\n\
     10 = NAND(1, 3)\n11 = NAND(3, 6)\n16 = NAND(2, 11)\n\
     19 = NAND(11, 7)\n22 = NAND(10, 16)\n23 = NAND(16, 19)\n"
  in
  match Bench_format.parse text with
  | Error e -> Alcotest.fail e
  | Ok c ->
      checki "inputs" 5 (Array.length c.Circuit.inputs);
      checki "outputs" 2 (Array.length c.Circuit.outputs);
      checki "gates" 6 (Circuit.num_gates c)

let test_bench_use_before_def () =
  (* Signals may be referenced before their defining line. *)
  let text = "INPUT(a)\nOUTPUT(z)\nz = NOT(y)\ny = NOT(a)\n" in
  match Bench_format.parse text with
  | Error e -> Alcotest.fail e
  | Ok c -> checki "gates" 2 (Circuit.num_gates c)

let test_bench_sequential_feedback () =
  let text = "INPUT(a)\nOUTPUT(q)\nq = DFF(d)\nd = XOR(a, q)\n" in
  match Bench_format.parse text with
  | Error e -> Alcotest.fail e
  | Ok c ->
      checki "dffs" 1 (Circuit.num_dff c);
      checkb "valid" true (Result.is_ok (Circuit.validate c))

let test_bench_errors () =
  let is_err s = Result.is_error (Bench_format.parse s) in
  checkb "cycle" true (is_err "INPUT(a)\nx = NOT(y)\ny = NOT(x)\nOUTPUT(x)\n");
  checkb "undefined" true (is_err "OUTPUT(z)\nz = NOT(ghost)\n");
  checkb "dup" true (is_err "INPUT(a)\nINPUT(a)\n");
  checkb "unknown gate" true (is_err "INPUT(a)\nz = FROB(a)\nOUTPUT(z)\n");
  checkb "syntax" true (is_err "INPUT a\n")

(* Every parser error — syntax *and* resolution — must name a source
   line: "line N: ..." is what lets a user fix a 40k-line netlist. *)
let err_at parse label expected_prefix text =
  match parse text with
  | Ok _ -> Alcotest.failf "%s: expected an error" label
  | Error msg ->
      checkb
        (Printf.sprintf "%s: %S starts with %S" label msg expected_prefix)
        true
        (String.starts_with ~prefix:expected_prefix msg)

let test_bench_error_lines () =
  let e = err_at Bench_format.parse in
  e "unknown gate" "line 2: unknown gate type: FROB"
    "INPUT(a)\nz = FROB(a)\nOUTPUT(z)\n";
  e "duplicate input" "line 3: duplicate definition of a (first at line 1)"
    "INPUT(a)\nINPUT(b)\nINPUT(a)\n";
  e "duplicate gate" "line 4: duplicate definition of z (first at line 3)"
    "INPUT(a)\nINPUT(b)\nz = AND(a, b)\nz = OR(a, b)\nOUTPUT(z)\n";
  e "undefined fanin" "line 2: undefined signal: ghost"
    "INPUT(a)\nz = NOT(ghost)\nOUTPUT(z)\n";
  e "undefined output" "line 1: undefined output signal: z" "OUTPUT(z)\nINPUT(a)\n";
  (* The cycle is reported from the statement that closes it. *)
  e "cycle" "line 3: combinational cycle at"
    "INPUT(a)\nx = NOT(y)\ny = NOT(x)\nOUTPUT(x)\n";
  (* A truncated file: the last gate's fanin was cut off. *)
  e "truncated" "line 3: undefined signal: w"
    "INPUT(a)\nz = NOT(a)\nq = AND(z, w)\nOUTPUT(q)"

let test_blif_error_lines () =
  let e = err_at Blif.parse in
  e "duplicate names" "line 6: duplicate definition of f (first at line 4)"
    ".model m\n.inputs a b\n.outputs f\n.names a f\n1 1\n.names b f\n1 1\n.end\n";
  e "duplicate vs input" "line 3: duplicate definition of a (first at line 2)"
    ".model m\n.inputs a\n.names a\n1\n.end\n";
  e "undefined signal" "line 3: undefined signal: g"
    ".model m\n.outputs f\n.names g f\n1 1\n.end\n";
  e "undefined output" "line 2: undefined output signal: f"
    ".model m\n.outputs f\n.end\n";
  (* A truncated file: cover rows cut off mid-row. *)
  e "truncated cover" "line 5: bad cover row: 1"
    ".model m\n.inputs a b\n.outputs f\n.names a b f\n1";
  e "cycle" "line 5: combinational cycle at"
    ".model m\n.inputs a\n.names g f\n1 1\n.names f g\n1 1\n.outputs f\n.end\n"

let equivalent_comb ?(vectors = 32) c1 c2 =
  (* Compare primary outputs on shared random stimulus. *)
  let rng = Rng.create 99 in
  let vecs = Simulate.random_vectors rng c1 vectors in
  let o1 = Simulate.run c1 vecs and o2 = Simulate.run c2 vecs in
  o1 = o2

let test_bench_roundtrip () =
  List.iter
    (fun c ->
      match Bench_format.parse (Bench_format.to_string c) with
      | Error e -> Alcotest.fail e
      | Ok c' ->
          checki "same gates" (Circuit.num_gates c) (Circuit.num_gates c');
          checki "same dffs" (Circuit.num_dff c) (Circuit.num_dff c');
          checki "same inputs" (Array.length c.Circuit.inputs)
            (Array.length c'.Circuit.inputs);
          checkb "behaviour preserved" true (equivalent_comb c c'))
    [
      Generator.c17 ();
      Generator.ripple_adder ~bits:4 ();
      Generator.clustered
        { Generator.default_clustered with clusters = 2; gates_per_cluster = 20 };
    ]

let qcheck_bench_roundtrip =
  QCheck.Test.make ~name:"bench roundtrip preserves behaviour" ~count:30
    QCheck.(small_int)
    (fun seed ->
      let rng = Rng.create seed in
      let c =
        Generator.random ~rng ~num_inputs:4 ~num_gates:25 ~num_dff:3
          ~num_outputs:4 ()
      in
      match Bench_format.parse (Bench_format.to_string c) with
      | Error _ -> false
      | Ok c' -> equivalent_comb c c')

(* The first [Bench_format.parse]: a line list, per-line substrings and
   three name [Hashtbl]s. Kept verbatim as the reference for the in-place
   scanner, which must agree with it on every circuit and every error
   string. The first [to_string], built from [Printf.sprintf] lines, is
   kept too: the writer must give the same bytes. *)
module Reference_bench = struct
  let strip s = String.trim s

  let is_ident_char ch =
    (ch >= 'a' && ch <= 'z')
    || (ch >= 'A' && ch <= 'Z')
    || (ch >= '0' && ch <= '9')
    || ch = '_' || ch = '.' || ch = '[' || ch = ']' || ch = '$'

  let is_ident s = String.length s > 0 && String.for_all is_ident_char s

  (* A parsed statement, before name resolution. *)
  type stmt =
    | Input_decl of string
    | Output_decl of string
    | Assign of string * Gate.kind * string list

  let parse_line lineno line =
    let line =
      match String.index_opt line '#' with
      | Some i -> String.sub line 0 i
      | None -> line
    in
    let line = strip line in
    if String.length line = 0 then Ok None
    else
      let err msg = Error (Printf.sprintf "line %d: %s" lineno msg) in
      let parse_call s =
        match String.index_opt s '(' with
        | None -> err "expected '('"
        | Some lp ->
            if s.[String.length s - 1] <> ')' then err "expected ')'"
            else
              let head = strip (String.sub s 0 lp) in
              let inner = String.sub s (lp + 1) (String.length s - lp - 2) in
              let args =
                String.split_on_char ',' inner
                |> List.map strip
                |> List.filter (fun a -> String.length a > 0)
              in
              Ok (head, args)
      in
      match String.index_opt line '=' with
      | Some eq -> (
          let target = strip (String.sub line 0 eq) in
          let rhs = strip (String.sub line (eq + 1) (String.length line - eq - 1)) in
          if not (is_ident target) then err ("bad signal name: " ^ target)
          else
            match parse_call rhs with
            | Error _ as e -> e
            | Ok (g, args) -> (
                if not (List.for_all is_ident args) then err "bad argument name"
                else
                  match Gate.of_string g with
                  | None -> err ("unknown gate type: " ^ g)
                  | Some kind -> Ok (Some (Assign (target, kind, args)))))
      | None -> (
          match parse_call line with
          | Error _ as e -> e
          | Ok (head, args) -> (
              match (String.uppercase_ascii head, args) with
              | "INPUT", [ a ] -> Ok (Some (Input_decl a))
              | "OUTPUT", [ a ] -> Ok (Some (Output_decl a))
              | ("INPUT" | "OUTPUT"), _ -> err "INPUT/OUTPUT take one argument"
              | _ -> err ("unknown statement: " ^ head)))

  (* Name resolution. Signals may be used before their defining line, and a
     flip-flop's D cone may read its own Q (sequential feedback), so gates are
     resolved by depth-first search and DFFs get placeholder nodes wired at
     the end. Statements arrive paired with their source line so resolution
     errors (duplicates, undefined signals, cycles) name a line too. *)
  let build stmts =
    let decls = Hashtbl.create 256 in
    (* name -> lineno * kind * args *)
    let order = Vec.create () in
    (* declaration order of names *)
    let outputs = Vec.create () in
    let declare lineno name kind args =
      match Hashtbl.find_opt decls name with
      | Some (first, _, _) ->
          Error
            (Printf.sprintf "line %d: duplicate definition of %s (first at line %d)"
               lineno name first)
      | None ->
          Hashtbl.add decls name (lineno, kind, args);
          ignore (Vec.push order name);
          Ok ()
    in
    let rec scan = function
      | [] -> Ok ()
      | (lineno, Input_decl n) :: rest -> (
          match declare lineno n Gate.Input [] with
          | Error _ as e -> e
          | Ok () -> scan rest)
      | (lineno, Output_decl n) :: rest ->
          ignore (Vec.push outputs (lineno, n));
          scan rest
      | (lineno, Assign (target, kind, args)) :: rest -> (
          match declare lineno target kind args with
          | Error _ as e -> e
          | Ok () -> scan rest)
    in
    match scan stmts with
    | Error _ as e -> e
    | Ok () -> (
        let b = Circuit.Builder.create ~name:"bench" () in
        let ids = Hashtbl.create 256 in
        let visiting = Hashtbl.create 16 in
        let exception Fail of string in
        (* [at] is the line of the statement whose fanin list we are
           resolving — the best source position for a dangling name. *)
        let rec resolve ~at name =
          match Hashtbl.find_opt ids name with
          | Some id -> id
          | None -> (
              if Hashtbl.mem visiting name then
                raise
                  (Fail
                     (Printf.sprintf "line %d: combinational cycle at %s" at name));
              match Hashtbl.find_opt decls name with
              | None ->
                  raise
                    (Fail (Printf.sprintf "line %d: undefined signal: %s" at name))
              | Some (lineno, kind, args) ->
                  let id =
                    match kind with
                    | Gate.Input -> Circuit.Builder.input b name
                    | Gate.Dff ->
                        (* Q is a sequential source; D wired after the pass. *)
                        Circuit.Builder.dff_placeholder b name
                    | _ ->
                        Hashtbl.replace visiting name ();
                        let fanins = List.map (resolve ~at:lineno) args in
                        Hashtbl.remove visiting name;
                        Circuit.Builder.gate b ~name kind (Array.of_list fanins)
                  in
                  Hashtbl.replace ids name id;
                  id)
        in
        try
          Vec.iter
            (fun name ->
              let at, _, _ = Hashtbl.find decls name in
              ignore (resolve ~at name))
            order;
          (* Wire flip-flop D pins. *)
          Vec.iter
            (fun name ->
              match Hashtbl.find_opt decls name with
              | Some (lineno, Gate.Dff, [ d ]) ->
                  Circuit.Builder.connect_dff b (Hashtbl.find ids name)
                    (resolve ~at:lineno d)
              | Some (lineno, Gate.Dff, _) ->
                  raise
                    (Fail
                       (Printf.sprintf "line %d: DFF %s needs one fanin" lineno
                          name))
              | _ -> ())
            order;
          Vec.iter
            (fun (lineno, name) ->
              match Hashtbl.find_opt ids name with
              | Some id -> Circuit.Builder.mark_output b id
              | None ->
                  raise
                    (Fail
                       (Printf.sprintf "line %d: undefined output signal: %s"
                          lineno name)))
            outputs;
          Ok (Circuit.Builder.finish b)
        with
        | Fail msg -> Error msg
        | Invalid_argument msg -> Error msg)

  let parse text =
    let lines = String.split_on_char '\n' text in
    let rec collect lineno acc = function
      | [] -> Ok (List.rev acc)
      | line :: rest -> (
          match parse_line lineno line with
          | Error _ as e -> e
          | Ok None -> collect (lineno + 1) acc rest
          | Ok (Some s) -> collect (lineno + 1) ((lineno, s) :: acc) rest)
    in
    match collect 1 [] lines with Error _ as e -> e | Ok stmts -> build stmts

  let to_string c =
    let buf = Buffer.create 4096 in
    Buffer.add_string buf (Printf.sprintf "# %s\n" c.Circuit.name);
    Array.iter
      (fun i ->
        Buffer.add_string buf
          (Printf.sprintf "INPUT(%s)\n" (Circuit.node c i).Circuit.name))
      c.Circuit.inputs;
    Array.iter
      (fun i ->
        Buffer.add_string buf
          (Printf.sprintf "OUTPUT(%s)\n" (Circuit.node c i).Circuit.name))
      c.Circuit.outputs;
    let emit i =
      let nd = Circuit.node c i in
      match nd.Circuit.kind with
      | Gate.Input -> ()
      | kind ->
          let args =
            Array.to_list nd.Circuit.fanins
            |> List.map (fun f -> (Circuit.node c f).Circuit.name)
            |> String.concat ", "
          in
          Buffer.add_string buf
            (Printf.sprintf "%s = %s(%s)\n" nd.Circuit.name (Gate.to_string kind)
               args)
    in
    let order = Circuit.topological_order c in
    (* Topological order lists DFFs among sources; emit them last for
       readability. *)
    Array.iter
      (fun i ->
        if not (Gate.equal (Circuit.node c i).Circuit.kind Gate.Dff) then emit i)
      order;
    Array.iter
      (fun i ->
        if Gate.equal (Circuit.node c i).Circuit.kind Gate.Dff then emit i)
      order;
    Buffer.contents buf
end

let parse_outcome parse text =
  match parse text with
  | result -> `Returned result
  | exception e -> `Raised (Printexc.to_string e)

let same_parse text =
  parse_outcome Bench_format.parse text
  = parse_outcome Reference_bench.parse text

(* Text edits that reach every branch of the grammar: byte edits, dropped
   and duplicated lines, renamed signals, and stray syntax characters. *)
let mutate rng text =
  let len = String.length text in
  let pos () = if len = 0 then 0 else Rng.int rng (len + 1) in
  let insert at piece =
    String.sub text 0 at ^ piece ^ String.sub text at (len - at)
  in
  let lines () = String.split_on_char '\n' text in
  let pick a = a.(Rng.int rng (Array.length a)) in
  match Rng.int rng 7 with
  | 0 when len > 0 ->
      let b = Bytes.of_string text in
      Bytes.set b (Rng.int rng len)
        (pick
           [| 'a'; 'Z'; '0'; '_'; ' '; '\t'; '\r'; '\n'; '#'; '='; ',';
              '('; ')'; '\000'; '\012'; '-'; '$'; '[' |]);
      Bytes.to_string b
  | 1 ->
      let ls = Array.of_list (lines ()) in
      let drop = Rng.int rng (Array.length ls) in
      String.concat "\n"
        (List.filteri (fun i _ -> i <> drop) (Array.to_list ls))
  | 2 ->
      let ls = Array.of_list (lines ()) in
      let dup = pick ls and at = Rng.int rng (Array.length ls + 1) in
      let before = Array.to_list (Array.sub ls 0 at)
      and after = Array.to_list (Array.sub ls at (Array.length ls - at)) in
      String.concat "\n" (before @ (dup :: after))
  | 3 ->
      (* Rename a name (a maximal run of identifier characters, so
         keywords too), at one occurrence or at all of them, to a fresh
         name or to another name of the text: dangling uses, second
         definitions, aliases and consistent renamings. *)
      let runs = ref [] and start = ref (-1) in
      for k = 0 to len do
        let ident =
          k < len
          &&
          match text.[k] with
          | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' | '[' | ']' | '$'
            ->
              true
          | _ -> false
        in
        if ident && !start < 0 then start := k
        else if (not ident) && !start >= 0 then begin
          runs := (!start, k) :: !runs;
          start := -1
        end
      done;
      let runs = Array.of_list (List.rev !runs) in
      if Array.length runs = 0 then text
      else begin
        let name (s, e) = String.sub text s (e - s) in
        let victim = Rng.int rng (Array.length runs) in
        let old_name = name runs.(victim) in
        let fresh = if Rng.bool rng then "zz9" else name (pick runs) in
        let everywhere = Rng.bool rng in
        let buf = Buffer.create (len + 16) in
        let last = ref 0 in
        Array.iteri
          (fun k (s, e) ->
            if k = victim || (everywhere && String.equal (name (s, e)) old_name)
            then begin
              Buffer.add_string buf (String.sub text !last (s - !last));
              Buffer.add_string buf fresh;
              last := e
            end)
          runs;
        Buffer.add_string buf (String.sub text !last (len - !last));
        Buffer.contents buf
      end
  | 4 ->
      insert (pos ())
        (pick [| "#"; "="; ","; "()"; "("; ")"; " = "; ",,"; "\n"; "\r\n" |])
  | 5 ->
      insert (pos ())
        (pick
           [| "\ninput(zz)\n"; "\nOutput(zz)\n"; "\nzz = inv(zz)\n";
              "\nzz = BUFF(zz)\n"; "\nzz = CONST1()\n"; "\nzz = DFF()\n";
              "\nzz = dff(zz, zz)\n"; "\nINPUT()\n"; "\nINPUT(a,b)\n";
              "\nOUTPUT( , zz ,)\n"; "\nzz = AND( ,zz)\n"; "\nFOO(zz)\n";
              "\nzz = NOT(zz)#c\n"; "\nzz = XOR\n"; "\nzz = OR(zz\n";
              "\n = AND(zz)\n"; "\nzz z = AND(a)\n"; "\nzz = AND(a b)\n";
              "\nzy = NOT(zw, zw)\nzw = CONST0()\n"; "\nzx = CONST1(zw)\n" |])
  | _ -> text ^ pick [| ""; "\n"; "OUTPUT(zz)"; "zz = NOT(zz)"; "#" |]

let random_circuit rng =
  if Rng.bool rng then
    Generator.random ~rng ~num_inputs:(Rng.int_in rng 1 8)
      ~num_gates:(Rng.int_in rng 1 120) ~num_dff:(Rng.int rng 10)
      ~num_outputs:(Rng.int_in rng 1 8) ()
  else
    Generator.scale
      {
        Generator.default_scale with
        sc_gates = Rng.int_in rng 60 400;
        sc_block_gates = Rng.int_in rng 8 40;
        sc_blocks_per_region = Rng.int_in rng 2 6;
        sc_seed = Rng.int rng 1000;
      }

let random_bench_text rng = Bench_format.to_string (random_circuit rng)

let qcheck_bench_parse_reference =
  QCheck.Test.make
    ~name:"parse and to_string = reference (generated and mutated texts)"
    ~count:300 QCheck.small_int (fun seed ->
      let rng = Rng.create ((seed * 7919) + 11) in
      let text = random_bench_text rng in
      (* [random_bench_text] writes with [to_string]; so does the
         reference writer, to the byte. *)
      let c = Result.get_ok (Bench_format.parse text) in
      let written =
        String.equal (Bench_format.to_string c) (Reference_bench.to_string c)
      in
      let mutated = ref text in
      let ok = ref (written && same_parse text) in
      for _ = 1 to Rng.int_in rng 1 4 do
        mutated := mutate rng !mutated;
        ok := !ok && same_parse !mutated
      done;
      !ok)

let test_bench_parse_reference_cases () =
  List.iter
    (fun text ->
      checkb (String.escaped text) true (same_parse text))
    [
      "";
      "\n\n";
      "# only a comment";
      "INPUT(a)\r\nOUTPUT(a)\r\n";
      "  INPUT ( a )  # c\n\tOUTPUT(a)\x0c\n";
      "INPUT(a)\nz = and(a, a)\nOUTPUT(z)";
      "INPUT(a b)\nOUTPUT(a b)\n";
      "INPUT((a))\nOUTPUT((a))\n";
      "INPUT(a)\nz = NOT(a, a)\nOUTPUT(z)\n";
      "INPUT(a)\nz = CONST0(a)\n";
      "q = DFF(q)\nOUTPUT(q)\n";
      "q = DFF()\nOUTPUT(q)\n";
      "q = DFF(ghost)\n";
      "x = INPUT(y)\nOUTPUT(x)\n";
      "a = b = AND(x)\n";
      "=\n";
      "(\n";
      ")(\n";
      "INPUT(a)\nINPUT(a)\nz = FROB(a)\n";
      "INPUT(a)\nx = NOT(y)\ny = NOT(x)\nz = FROB(a)\n";
      "INPUT(a)\nINPUT(a)\nOUTPUT(ghost)\n";
    ]

(* The scanner allocates its circuit plus line- and name-indexed scratch;
   the reference read 1.0 Mw on s38584's text, a builder fed fanin
   lists, grown by doubling and ordered through successor arrays of its
   own 0.30 Mw, and a [finish] that copied the exactly sized node vector
   0.207 Mw (0.201 when the circuit takes the vector's storage), each of
   which fails the bound. *)
let test_bench_parse_allocation () =
  let c =
    Lazy.force
      (Option.get (Experiments.Suite.find "s38584")).Experiments.Suite.circuit
  in
  let text = Bench_format.to_string c in
  checkb "s38584 written as the reference writes it" true
    (String.equal text (Reference_bench.to_string c));
  checkb "s38584 text parses as the reference does" true (same_parse text);
  let words =
    Test_util.words_during (fun () -> ignore (Bench_format.parse text))
  in
  if words > 0.204e6 then
    Alcotest.failf "Bench_format.parse allocated %.4f Mw on s38584 (bound 0.204)"
      (words /. 1e6)

(* ------------------------------------------------------------------ *)
(* Simulation & generators                                            *)
(* ------------------------------------------------------------------ *)

let bits_of_int width n = Array.init width (fun i -> (n lsr i) land 1 = 1)
let int_of_bits bits =
  Array.to_list bits
  |> List.mapi (fun i b -> if b then 1 lsl i else 0)
  |> List.fold_left ( + ) 0

let test_c17_truth_table () =
  let c = Generator.c17 () in
  (* Exhaustive check against the NAND network evaluated directly. *)
  for v = 0 to 31 do
    let pi = bits_of_int 5 v in
    let g1 = pi.(0) and g2 = pi.(1) and g3 = pi.(2) and g6 = pi.(3) and g7 = pi.(4) in
    let nand a b = not (a && b) in
    let n10 = nand g1 g3 and n11 = nand g3 g6 in
    let n16 = nand g2 n11 and n19 = nand n11 g7 in
    let expect = [| nand n10 n16; nand n16 n19 |] in
    let outs, _ = Simulate.step c (Simulate.initial_state c) pi in
    check Alcotest.(array bool) "c17 outputs" expect outs
  done

let qcheck_adder_adds =
  QCheck.Test.make ~name:"ripple adder computes a+b+cin" ~count:200
    QCheck.(triple (int_bound 255) (int_bound 255) bool)
    (fun (a, b, cin) ->
      let c = Generator.ripple_adder ~bits:8 () in
      let pi = Array.concat [ bits_of_int 8 a; bits_of_int 8 b; [| cin |] ] in
      let outs, _ = Simulate.step c (Simulate.initial_state c) pi in
      int_of_bits outs = a + b + if cin then 1 else 0)

let qcheck_multiplier_multiplies =
  QCheck.Test.make ~name:"array multiplier computes a*b" ~count:100
    QCheck.(pair (int_bound 63) (int_bound 63))
    (fun (a, b) ->
      let c = Generator.multiplier ~bits:6 () in
      let pi = Array.concat [ bits_of_int 6 a; bits_of_int 6 b ] in
      let outs, _ = Simulate.step c (Simulate.initial_state c) pi in
      int_of_bits outs = a * b)

let test_alu_ops () =
  let bits = 4 in
  let c = Generator.alu ~bits () in
  let run a b s0 s1 cin =
    let pi =
      Array.concat [ bits_of_int bits a; bits_of_int bits b; [| s0; s1; cin |] ]
    in
    let outs, _ = Simulate.step c (Simulate.initial_state c) pi in
    (* outputs: bits results, carry, zero *)
    let value = int_of_bits (Array.sub outs 0 bits) in
    let zero = outs.(bits + 1) in
    (value, zero)
  in
  for a = 0 to 15 do
    for b = 0 to 15 do
      let v_and, z_and = run a b false false false in
      checki "AND" (a land b) v_and;
      checkb "zero flag" (a land b = 0) z_and;
      let v_or, _ = run a b true false false in
      checki "OR" (a lor b) v_or;
      let v_xor, _ = run a b false true false in
      checki "XOR" (a lxor b) v_xor;
      let v_add, _ = run a b true true false in
      checki "ADD" ((a + b) land 15) v_add
    done
  done

let test_ecc_no_error () =
  let data_bits = 16 in
  let c = Generator.ecc ~data_bits () in
  let r = Array.length c.Circuit.inputs - data_bits in
  let rng = Rng.create 4 in
  for _ = 1 to 20 do
    let data = Array.init data_bits (fun _ -> Rng.bool rng) in
    (* Compute the matching check bits by probing with zero checks: the
       syndrome then equals the data parity per group. *)
    let pi0 = Array.concat [ data; Array.make r false ] in
    let outs0, _ = Simulate.step c (Simulate.initial_state c) pi0 in
    let checks = Array.sub outs0 0 r in
    (* With proper check bits: zero syndrome and corrected = data. *)
    let pi = Array.concat [ data; checks ] in
    let outs, _ = Simulate.step c (Simulate.initial_state c) pi in
    check Alcotest.(array bool) "zero syndrome" (Array.make r false)
      (Array.sub outs 0 r);
    check Alcotest.(array bool) "data passthrough" data
      (Array.sub outs r data_bits)
  done

let test_ecc_corrects_single_error () =
  let data_bits = 16 in
  let c = Generator.ecc ~data_bits () in
  let r = Array.length c.Circuit.inputs - data_bits in
  let rng = Rng.create 5 in
  for _ = 1 to 20 do
    let data = Array.init data_bits (fun _ -> Rng.bool rng) in
    let pi0 = Array.concat [ data; Array.make r false ] in
    let outs0, _ = Simulate.step c (Simulate.initial_state c) pi0 in
    let checks = Array.sub outs0 0 r in
    (* Flip one random data bit; the decoder must restore it. *)
    let k = Rng.int rng data_bits in
    let corrupted = Array.copy data in
    corrupted.(k) <- not corrupted.(k);
    let pi = Array.concat [ corrupted; checks ] in
    let outs, _ = Simulate.step c (Simulate.initial_state c) pi in
    check Alcotest.(array bool) "corrected" data (Array.sub outs r data_bits)
  done

let test_adder_comparator () =
  let bits = 6 in
  let c = Generator.adder_comparator ~bits () in
  let rng = Rng.create 6 in
  for _ = 1 to 100 do
    let a = Rng.int rng 64 and b = Rng.int rng 64 in
    let pi = Array.concat [ bits_of_int bits a; bits_of_int bits b; [| false |] ] in
    let outs, _ = Simulate.step c (Simulate.initial_state c) pi in
    (* outputs: sum bits, cout, gt, eq, parity a, parity b *)
    checki "sum" (a + b) (int_of_bits (Array.sub outs 0 (bits + 1)));
    checkb "gt" (a > b) outs.(bits + 1);
    checkb "eq" (a = b) outs.(bits + 2)
  done

let test_counter_via_dff () =
  (* A 1-bit toggle built by hand: q' = XOR(q, 1). *)
  let b = Circuit.Builder.create () in
  let en = Circuit.Builder.input b "en" in
  let q = Circuit.Builder.dff_placeholder b "q" in
  let d = Test_util.gate b Gate.Xor [| q; en |] in
  Circuit.Builder.connect_dff b q d;
  Circuit.Builder.mark_output b q;
  let c = Circuit.Builder.finish b in
  let vectors = Array.make 6 [| true |] in
  let outs = Simulate.run c vectors in
  let seq = Array.map (fun o -> o.(0)) outs in
  check Alcotest.(array bool) "toggles"
    [| false; true; false; true; false; true |] seq

let test_clustered_wellformed () =
  let c = Generator.clustered Generator.default_clustered in
  checkb "valid" true (Result.is_ok (Circuit.validate c));
  (* Every primary input feeds something. *)
  Array.iter
    (fun i -> checkb "pi used" true (Array.length c.Circuit.fanouts.(i) > 0))
    c.Circuit.inputs;
  checkb "has dffs" true (Circuit.num_dff c > 0)

let test_clustered_deterministic () =
  let p = Generator.default_clustered in
  let a = Bench_format.to_string (Generator.clustered p) in
  let b = Bench_format.to_string (Generator.clustered p) in
  check Alcotest.string "same seed, same circuit" a b;
  let c = Bench_format.to_string (Generator.clustered { p with seed = 2 }) in
  checkb "different seed differs" true (not (String.equal a c))

(* The statistical generators' output, pinned by the MD5 of its .bench
   text: any change to the order or the arguments of their RNG draws
   moves these. *)
let test_generators_pinned () =
  let md5 c = Digest.to_hex (Digest.string (Bench_format.to_string c)) in
  let pin label expected c = check Alcotest.string label expected (md5 c) in
  pin "clustered default" "616d61a3a6c7cd60e2720f69c5e16a7c"
    (Generator.clustered Generator.default_clustered);
  pin "clustered, more flip-flops than gates"
    "3f02e52e0439d0c593b9b9121607332c"
    (Generator.clustered
       {
         Generator.default_clustered with
         clusters = 3;
         gates_per_cluster = 4;
         dffs_per_cluster = 6;
         seed = 5;
       });
  pin "scale 3k seed 7" "ad538dc45f7c9451947bf1898574658f"
    (Generator.scale
       { Generator.default_scale with sc_gates = 3_000; sc_seed = 7 })

let qcheck_random_circuit_valid =
  QCheck.Test.make ~name:"random circuits are well-formed" ~count:50
    QCheck.(small_int)
    (fun seed ->
      let rng = Rng.create seed in
      let c =
        Generator.random ~rng ~num_inputs:5 ~num_gates:40 ~num_dff:4
          ~num_outputs:6 ()
      in
      Result.is_ok (Circuit.validate c))

let test_stats () =
  let c = Generator.c17 () in
  let s = Stats.compute c in
  checki "inputs" 5 s.Stats.num_inputs;
  checki "outputs" 2 s.Stats.num_outputs;
  checki "gates" 6 s.Stats.num_gates;
  checki "dff" 0 s.Stats.num_dff;
  (* 11 signals, all driven/read. Gate fanin pins = 12, plus 5 PI + 2 PO. *)
  checki "pins" 19 s.Stats.num_pins;
  checki "depth" 3 s.Stats.depth

(* ------------------------------------------------------------------ *)
(* Transforms                                                         *)
(* ------------------------------------------------------------------ *)

let equivalent_seq ?(vectors = 32) c1 c2 =
  let rng = Rng.create 123 in
  let vecs = Simulate.random_vectors rng c1 vectors in
  Simulate.run c1 vecs = Simulate.run c2 vecs

let test_const_propagation () =
  (* z = AND(a, OR(b, 1)) = a;  w = XOR(a, 0) = a. *)
  let b = Circuit.Builder.create () in
  let a = Circuit.Builder.input b "a" in
  let bb = Circuit.Builder.input b "b" in
  let one = Test_util.gate b Gate.Const1 [||] in
  let zero = Test_util.gate b Gate.Const0 [||] in
  let o = Test_util.gate b Gate.Or [| bb; one |] in
  let z = Circuit.Builder.gate b ~name:"z" Gate.And [| a; o |] in
  let w = Circuit.Builder.gate b ~name:"w" Gate.Xor [| a; zero |] in
  Circuit.Builder.mark_output b z;
  Circuit.Builder.mark_output b w;
  let c = Circuit.Builder.finish b in
  let c' = Transform.propagate_constants c in
  checkb "equivalent" true (equivalent_seq c c');
  (* Both outputs collapse to buffers of a; all logic gates vanish. *)
  checkb "shrinks" true (Circuit.num_gates c' < Circuit.num_gates c);
  check Alcotest.(option int) "z survives by name" (Circuit.find c' "z")
    (Circuit.find c' "z");
  checkb "z exists" true (Circuit.find c' "z" <> None)

let test_const_propagation_to_output () =
  (* A primary output that becomes constant is emitted as a constant node
     with the right name. *)
  let b = Circuit.Builder.create () in
  let a = Circuit.Builder.input b "a" in
  let zero = Test_util.gate b Gate.Const0 [||] in
  let z = Circuit.Builder.gate b ~name:"z" Gate.And [| a; zero |] in
  Circuit.Builder.mark_output b z;
  let c = Circuit.Builder.finish b in
  let c' = Transform.propagate_constants c in
  checkb "equivalent" true (equivalent_seq c c');
  match Circuit.find c' "z" with
  | Some id ->
      checkb "constant zero" true
        (Gate.equal (Circuit.node c' id).Circuit.kind Gate.Const0)
  | None -> Alcotest.fail "output z lost"

let test_collapse_buffers () =
  let b = Circuit.Builder.create () in
  let a = Circuit.Builder.input b "a" in
  let b1 = Test_util.gate b Gate.Buf [| a |] in
  let n1 = Test_util.gate b Gate.Not [| b1 |] in
  let n2 = Test_util.gate b Gate.Not [| n1 |] in
  let z = Circuit.Builder.gate b ~name:"z" Gate.And [| n2; a |] in
  Circuit.Builder.mark_output b z;
  let c = Circuit.Builder.finish b in
  let c' = Transform.collapse_buffers c in
  checkb "equivalent" true (equivalent_seq c c');
  (* The buffer and the double inverter are bypassed; the now-dead inner
     NOT is sweep's job. After sweeping only the AND remains. *)
  checkb "shrinks" true (Circuit.num_gates c' < Circuit.num_gates c);
  checki "only the AND remains after sweep" 1
    (Circuit.num_gates (Transform.sweep c'))

let test_strash () =
  let b = Circuit.Builder.create () in
  let a = Circuit.Builder.input b "a" in
  let bb = Circuit.Builder.input b "b" in
  let g1 = Test_util.gate b Gate.And [| a; bb |] in
  let g2 = Test_util.gate b Gate.And [| bb; a |] in
  (* commutative dup *)
  let z = Circuit.Builder.gate b ~name:"z" Gate.Xor [| g1; g2 |] in
  Circuit.Builder.mark_output b z;
  let c = Circuit.Builder.finish b in
  let c' = Transform.strash c in
  checkb "equivalent" true (equivalent_seq c c');
  checkb "duplicate AND merged" true (Circuit.num_gates c' < Circuit.num_gates c)

let test_sweep () =
  let b = Circuit.Builder.create () in
  let a = Circuit.Builder.input b "a" in
  let unused_pi = Circuit.Builder.input b "unused" in
  let live = Circuit.Builder.gate b ~name:"z" Gate.Not [| a |] in
  let dead = Test_util.gate b Gate.Not [| live |] in
  let _dead2 = Test_util.gate b Gate.And [| dead; a |] in
  let dq = Circuit.Builder.dff_placeholder b "deadq" in
  Circuit.Builder.connect_dff b dq dead;
  Circuit.Builder.mark_output b live;
  let c = Circuit.Builder.finish b in
  let c' = Transform.sweep c in
  checkb "equivalent" true (equivalent_seq c c');
  checki "only live gate kept" 1 (Circuit.num_gates c');
  checki "dead flip-flop removed" 0 (Circuit.num_dff c');
  (* The unused primary input remains part of the interface. *)
  checki "PIs kept" 2 (Array.length c'.Circuit.inputs);
  ignore unused_pi

let inject_noise rng c =
  (* Rebuild [c] with extra constants, buffers and duplicate gates so the
     optimizer has something to chew on, preserving behaviour. Invented
     nodes get a reserved prefix so they cannot collide with source
     names. *)
  let b = Circuit.Builder.create ~name:"noisy" () in
  let fresh =
    let k = ref 0 in
    fun () ->
      incr k;
      Printf.sprintf "$noise%d" !k
  in
  let num = Circuit.num_nodes c in
  let new_id = Array.make num (-1) in
  Array.iter
    (fun i -> new_id.(i) <- Circuit.Builder.input b (Circuit.node c i).Circuit.name)
    c.Circuit.inputs;
  for i = 0 to num - 1 do
    if Gate.equal (Circuit.node c i).Circuit.kind Gate.Dff then
      new_id.(i) <- Circuit.Builder.dff_placeholder b (Circuit.node c i).Circuit.name
  done;
  let order = Circuit.topological_order c in
  Array.iter
    (fun i ->
      let nd = Circuit.node c i in
      match nd.Circuit.kind with
      | Gate.Input | Gate.Dff -> ()
      | kind ->
          let fanins =
            Array.map
              (fun f ->
                let id = new_id.(f) in
                match Rng.int rng 4 with
                | 0 -> Circuit.Builder.gate b ~name:(fresh ()) Gate.Buf [| id |]
                | 1 ->
                    let n1 =
                      Circuit.Builder.gate b ~name:(fresh ()) Gate.Not [| id |]
                    in
                    Circuit.Builder.gate b ~name:(fresh ()) Gate.Not [| n1 |]
                | 2 ->
                    let zero =
                      Circuit.Builder.gate b ~name:(fresh ()) Gate.Const0 [||]
                    in
                    Circuit.Builder.gate b ~name:(fresh ()) Gate.Xor
                      [| id; zero |]
                | _ -> id)
              nd.Circuit.fanins
          in
          new_id.(i) <- Circuit.Builder.gate b ~name:nd.Circuit.name kind fanins)
    order;
  for i = 0 to num - 1 do
    let nd = Circuit.node c i in
    if Gate.equal nd.Circuit.kind Gate.Dff then
      Circuit.Builder.connect_dff b new_id.(i) new_id.(nd.Circuit.fanins.(0))
  done;
  Array.iter (fun o -> Circuit.Builder.mark_output b new_id.(o)) c.Circuit.outputs;
  Circuit.Builder.finish b

let qcheck_optimize_equivalence =
  QCheck.Test.make ~name:"optimize preserves behaviour and shrinks noise"
    ~count:30 QCheck.small_int
    (fun seed ->
      let rng = Rng.create (seed + 31) in
      let c =
        Generator.random ~rng ~num_inputs:5 ~num_gates:30 ~num_dff:3
          ~num_outputs:4 ()
      in
      let noisy = inject_noise rng c in
      let opt = Transform.optimize noisy in
      equivalent_seq c opt && Circuit.num_gates opt <= Circuit.num_gates noisy)

(* The sweep is a [rebuild] with a liveness predicate; the stand-alone
   walk it replaced is kept in [References.Reference_sweep]. Both must
   build the same circuit, node for node: on random circuits (dead gates
   and flip-flops where no output reads them) and on their noisy,
   buffer-collapsed copies (dead inverters and constants). *)
let qcheck_sweep_reference =
  QCheck.Test.make ~name:"sweep = reference (random circuits)" ~count:100
    QCheck.small_int (fun seed ->
      let rng = Rng.create ((seed * 7919) + 5) in
      let c =
        Generator.random ~rng ~num_inputs:(Rng.int_in rng 1 8)
          ~num_gates:(Rng.int_in rng 1 60) ~num_dff:(Rng.int rng 6)
          ~num_outputs:(Rng.int_in rng 1 6) ()
      in
      let collapsed = Transform.collapse_buffers (inject_noise rng c) in
      List.for_all
        (fun c -> Transform.sweep c = References.Reference_sweep.sweep c)
        [ c; collapsed ])

let test_optimize_shrinks_generator () =
  let c = Generator.adder_comparator ~bits:8 () in
  let opt = Transform.optimize c in
  checkb "equivalent" true (equivalent_seq c opt);
  checkb "not larger" true (Circuit.num_gates opt <= Circuit.num_gates c)

(* ------------------------------------------------------------------ *)
(* BLIF                                                               *)
(* ------------------------------------------------------------------ *)

let test_blif_parse_basic () =
  let text =
    ".model half_adder\n.inputs a b\n.outputs s c\n.names a b s\n10 1\n01 1\n\
     .names a b c\n11 1\n.end\n"
  in
  match Blif.parse text with
  | Error e -> Alcotest.fail e
  | Ok c ->
      checki "inputs" 2 (Array.length c.Circuit.inputs);
      checki "outputs" 2 (Array.length c.Circuit.outputs);
      (* s = XOR, c = AND behaviourally. *)
      let run a b =
        let outs, _ =
          Simulate.step c (Simulate.initial_state c) [| a; b |]
        in
        (outs.(0), outs.(1))
      in
      checkb "s" true (run true false = (true, false));
      checkb "c" true (run true true = (false, true));
      checkb "zero" true (run false false = (false, false))

let test_blif_offset_cover () =
  (* Off-set cover: f is 0 exactly when a=1,b=1 -> f = NAND(a,b). *)
  let text = ".model m\n.inputs a b\n.outputs f\n.names a b f\n11 0\n.end\n" in
  match Blif.parse text with
  | Error e -> Alcotest.fail e
  | Ok c ->
      let f a b =
        (fst
           (let outs, st = Simulate.step c (Simulate.initial_state c) [| a; b |] in
            (outs.(0), st)))
      in
      checkb "nand" true (f true true = false && f true false && f false false)

let test_blif_constants_and_latch () =
  let text =
    ".model m\n.inputs a\n.outputs one zero q\n.names one\n1\n.names zero\n\
     .latch d q 0\n.names a q d\n11 1\n.end\n"
  in
  match Blif.parse text with
  | Error e -> Alcotest.fail e
  | Ok c ->
      checki "one latch" 1 (Circuit.num_dff c);
      let outs = Simulate.run c [| [| true |]; [| true |]; [| true |] |] in
      (* one, zero, q: q starts 0, AND(a,q) keeps it 0 forever. *)
      Array.iter
        (fun o -> checkb "row" true (o.(0) && (not o.(1)) && not o.(2)))
        outs

let test_blif_errors () =
  let is_err s = Result.is_error (Blif.parse s) in
  checkb "bad row" true (is_err ".model m\n.inputs a\n.outputs f\n.names a f\n2 1\n.end\n");
  checkb "mixed polarity" true
    (is_err ".model m\n.inputs a b\n.outputs f\n.names a b f\n10 1\n01 0\n.end\n");
  checkb "undefined signal" true (is_err ".model m\n.outputs f\n.names g f\n1 1\n.end\n");
  checkb "unsupported directive" true (is_err ".model m\n.gate nand2 a=x\n.end\n");
  checkb "cycle" true
    (is_err ".model m\n.inputs a\n.outputs f\n.names g f\n1 1\n.names f g\n1 1\n.end\n")

let test_blif_roundtrip () =
  List.iter
    (fun c ->
      match Blif.parse (Blif.to_string c) with
      | Error e -> Alcotest.fail (c.Circuit.name ^ ": " ^ e)
      | Ok c' ->
          checkb (c.Circuit.name ^ " behaviour preserved") true
            (equivalent_seq c c'))
    [
      Generator.c17 ();
      Generator.ripple_adder ~bits:5 ();
      Generator.alu ~bits:3 ();
      Generator.clustered
        { Generator.default_clustered with clusters = 2; gates_per_cluster = 25 };
    ]

let qcheck_blif_roundtrip =
  QCheck.Test.make ~name:"blif roundtrip preserves behaviour" ~count:25
    QCheck.small_int
    (fun seed ->
      let rng = Rng.create (seed + 41) in
      let c =
        Generator.random ~rng ~num_inputs:4 ~num_gates:25 ~num_dff:3
          ~num_outputs:4 ()
      in
      match Blif.parse (Blif.to_string c) with
      | Error _ -> false
      | Ok c' -> equivalent_seq c c')

let test_blif_continuation_lines () =
  let text =
    ".model m\n.inputs a \\\nb\n.outputs f\n.names a b f\n11 1\n.end\n"
  in
  match Blif.parse text with
  | Error e -> Alcotest.fail e
  | Ok c -> checki "both inputs seen" 2 (Array.length c.Circuit.inputs)

(* ------------------------------------------------------------------ *)
(* Verilog                                                            *)
(* ------------------------------------------------------------------ *)

let test_verilog_parse_c17 () =
  let text =
    "// c17\nmodule c17 (N1, N2, N3, N6, N7, N22, N23);\n\
     input N1, N2, N3, N6, N7;\noutput N22, N23;\nwire N10, N11, N16, N19;\n\
     nand g1 (N10, N1, N3);\nnand g2 (N11, N3, N6);\nnand g3 (N16, N2, N11);\n\
     nand g4 (N19, N11, N7);\nnand g5 (N22, N10, N16);\nnand g6 (N23, N16, N19);\n\
     endmodule\n"
  in
  match Verilog.parse text with
  | Error e -> Alcotest.fail e
  | Ok c ->
      checki "inputs" 5 (Array.length c.Circuit.inputs);
      checki "outputs" 2 (Array.length c.Circuit.outputs);
      checki "gates" 6 (Circuit.num_gates c);
      (* Behaviourally identical to the built-in c17. *)
      checkb "equivalent to builtin" true (equivalent_seq (Generator.c17 ()) c)

let test_verilog_assign_expressions () =
  let text =
    "module m (a, b, c, z, w);\ninput a, b, c;\noutput z, w;\n\
     assign z = ~(a & b) ^ (c | 1'b0);\nassign w = a;\nendmodule\n"
  in
  match Verilog.parse text with
  | Error e -> Alcotest.fail e
  | Ok c ->
      for v = 0 to 7 do
        let a = v land 1 = 1 and b = v land 2 = 2 and cc = v land 4 = 4 in
        let outs, _ = Simulate.step c (Simulate.initial_state c) [| a; b; cc |] in
        checkb "z" ((not (a && b)) <> cc) outs.(0);
        checkb "w" a outs.(1)
      done

let test_verilog_dff_forms () =
  (* Both the 2-port and the ISCAS'89 3-port flip-flop forms. *)
  let text2 =
    "module m (a, q);\ninput a;\noutput q;\ndff d1 (q, a);\nendmodule\n"
  in
  let text3 =
    "module m (CK, a, q);\ninput CK, a;\noutput q;\ndff d1 (CK, q, a);\nendmodule\n"
  in
  (match Verilog.parse text2 with
  | Error e -> Alcotest.fail e
  | Ok c -> checki "2-port dff" 1 (Circuit.num_dff c));
  match Verilog.parse text3 with
  | Error e -> Alcotest.fail e
  | Ok c -> checki "3-port dff" 1 (Circuit.num_dff c)

let test_verilog_comments_and_errors () =
  let ok s = Result.is_ok (Verilog.parse s) in
  checkb "block comment" true
    (ok "module m (a, z); /* hi \n there */ input a; output z; buf g (z, a); endmodule");
  checkb "undriven output" false (ok "module m (z); output z; endmodule");
  checkb "duplicate driver" false
    (ok "module m (a, z); input a; output z; buf g (z, a); not h (z, a); endmodule");
  checkb "cycle" false
    (ok "module m (z); output z; wire y; not g (z, y); not h (y, z); endmodule");
  checkb "syntax" false (ok "module m (a; endmodule")

let test_verilog_roundtrip () =
  List.iter
    (fun c ->
      match Verilog.parse (Verilog.to_string c) with
      | Error e -> Alcotest.fail (c.Circuit.name ^ ": " ^ e)
      | Ok c' ->
          checkb (c.Circuit.name ^ " behaviour preserved") true
            (equivalent_seq c c'))
    [
      Generator.c17 ();
      Generator.ripple_adder ~bits:5 ();
      Generator.ecc ~data_bits:8 ();
      Generator.clustered
        { Generator.default_clustered with clusters = 2; gates_per_cluster = 25 };
    ]

let qcheck_verilog_roundtrip =
  QCheck.Test.make ~name:"verilog roundtrip preserves behaviour" ~count:25
    QCheck.small_int
    (fun seed ->
      let rng = Rng.create (seed + 53) in
      let c =
        Generator.random ~rng ~num_inputs:4 ~num_gates:25 ~num_dff:3
          ~num_outputs:4 ()
      in
      match Verilog.parse (Verilog.to_string c) with
      | Error _ -> false
      | Ok c' -> equivalent_seq c c')

(* Parsers must never raise on garbage: they return Error. *)
let qcheck_parsers_never_raise =
  QCheck.Test.make ~name:"parsers reject garbage without raising" ~count:300
    QCheck.(string_gen_of_size Gen.(int_range 0 200) Gen.printable)
    (fun junk ->
      let safe parse =
        match parse junk with Ok _ | Error _ -> true | exception _ -> false
      in
      safe Bench_format.parse && safe Blif.parse && safe Verilog.parse)

let qcheck_parsers_never_raise_structured =
  (* Garbage that at least looks like each format's skeleton. *)
  QCheck.Test.make ~name:"parsers reject near-miss inputs without raising"
    ~count:200
    QCheck.(pair (int_range 0 2) (string_gen_of_size Gen.(int_range 0 80) Gen.printable))
    (fun (kind, junk) ->
      let wrap = match kind with
        | 0 -> "INPUT(a)\n" ^ junk ^ "\nOUTPUT(z)\n"
        | 1 -> ".model m\n" ^ junk ^ "\n.end\n"
        | _ -> "module m (a);\n" ^ junk ^ "\nendmodule\n"
      in
      let safe parse =
        match parse wrap with Ok _ | Error _ -> true | exception _ -> false
      in
      safe Bench_format.parse && safe Blif.parse && safe Verilog.parse)

(* ------------------------------------------------------------------ *)
(* BLIF and Verilog against their references                          *)
(* ------------------------------------------------------------------ *)

(* The BLIF and Verilog parsers as they were before name resolution
   moved to [Elaborate] live in test/reference_blif.ml and
   test/reference_verilog.ml. The current parsers must return the same
   circuit or the same error string on every text. *)

(* [mutate], plus statements of the format inserted at a line break. *)
let mutate_with snippets rng text =
  if Rng.int rng 3 > 0 then mutate rng text
  else
    let breaks = ref [ 0 ] in
    String.iteri (fun k ch -> if ch = '\n' then breaks := (k + 1) :: !breaks) text;
    let breaks = Array.of_list !breaks in
    let at = breaks.(Rng.int rng (Array.length breaks)) in
    String.sub text 0 at
    ^ snippets.(Rng.int rng (Array.length snippets))
    ^ String.sub text at (String.length text - at)

let blif_snippets =
  [| ".names zz zz\n1 1\n"; ".names a zz\n0 1\n"; ".latch zz zq 0\n";
     ".latch zq zz\n"; ".inputs zz\n"; ".outputs zz\n"; ".outputs zq zz\n";
     ".names zz\n1\n"; ".names zz\n"; ".names zy zw zz\n1- 1\n-1 0\n";
     ".names zy zz\n- 1\n"; ".names zy zz\n0 0\n"; ".names zz zy\n11 1\n";
     ".model other\n"; ".exdc\n"; ".latch zz\n"; ".names\n"; ".end\n";
     ".names zw zy\n1 1\n\\\n"; ".names zy\n1\n" |]

let verilog_snippets =
  [| "assign zz = ~zz;\n"; "assign zz = zy & (zw | 1'b1);\n";
     "assign zz = zy;\n"; "assign zy = 1'b0 ^ zz;\n"; "and g (zz, zz);\n";
     "and g (zz, zy);\n"; "nand (zy, zz, zz);\n"; "dff d (zz, zz);\n";
     "dff d (ck, zq, zz);\n"; "DFF (zq);\n"; "output zz;\n"; "input zz;\n";
     "input zy, zw;\n"; "wire zz;\n"; "not (zz, zy);\n"; "buf b (zq, zz);\n";
     "/*"; "// x\n"; "endmodule\n"; "xor x (zz, zy, zw);\n" |]

let same_outcome parse reference text =
  parse_outcome parse text = parse_outcome reference text

(* Generated texts (random and [Generator.scale] circuits, written by the
   format's own writer) and the same texts after 1–4 mutations. *)
let differential ~name ~seed_salt ~write ~parse ~reference ~snippets =
  QCheck.Test.make ~name ~count:200 QCheck.small_int (fun seed ->
      let rng = Rng.create ((seed * 7919) + seed_salt) in
      match write (random_circuit rng) with
      | exception Invalid_argument _ -> true (* a wide XOR BLIF refuses *)
      | text ->
          let ok = ref (same_outcome parse reference text) in
          let mutated = ref text in
          for _ = 1 to Rng.int_in rng 1 4 do
            mutated := mutate_with snippets rng !mutated;
            ok := !ok && same_outcome parse reference !mutated
          done;
          !ok)

let qcheck_blif_reference =
  differential ~name:"parse = reference (generated and mutated texts)"
    ~seed_salt:13 ~write:Blif.to_string ~parse:Blif.parse
    ~reference:References.Reference_blif.parse ~snippets:blif_snippets

let qcheck_verilog_reference =
  differential ~name:"parse = reference (generated and mutated texts)"
    ~seed_salt:17 ~write:Verilog.to_string ~parse:Verilog.parse
    ~reference:References.Reference_verilog.parse ~snippets:verilog_snippets

let test_blif_reference_cases () =
  List.iter
    (fun text ->
      checkb (String.escaped text) true
        (same_outcome Blif.parse References.Reference_blif.parse text))
    [
      "";
      ".model m\n.inputs a b\n.outputs f\n.names a f\n1 1\n.names b f\n1 1\n.end\n";
      ".model m\n.outputs f\n.names g f\n1 1\n.end\n";
      ".model m\n.outputs f\n.end\n";
      ".model m\n.inputs a\n.names g f\n1 1\n.names f g\n1 1\n.outputs f\n.end\n";
      ".model m\n.inputs a b\n.outputs f\n.names a b f\n1- 1\n-1 0\n.end\n";
      ".model m\n.inputs a\n.outputs q\n.latch q q 0\n.end\n";
      ".model m\n.inputs a\n.outputs q\n.latch d q 0\n.end\n";
      ".model m\n.inputs a\n.outputs f\n.names a f\n- 1\n.end\n";
      ".model m\n.inputs $b0 a\n.outputs f\n.names a $b0 f\n01 1\n10 1\n.end\n";
      ".model m\n.inputs a\n.outputs f g\n.names a f\n0 0\n.names f g\n.end\n";
      ".model m\n.outputs f\n.outputs f\n.inputs f\n.end\n";
    ]

let test_verilog_reference_cases () =
  List.iter
    (fun text ->
      checkb (String.escaped text) true
        (same_outcome Verilog.parse References.Reference_verilog.parse text))
    [
      "";
      "module m (a, z);\n input a;\n output z;\n and g (z, a);\nendmodule\n";
      "module m;\n input a;\n output z;\n not (z, y);\nendmodule\n";
      "module m;\n input a;\n output z;\n not (z, a);\n buf (z, a);\nendmodule\n";
      "module m;\n input a;\n output z, w;\n buf (z, a);\nendmodule\n";
      "module m;\n output z;\n assign z = ~y;\n assign y = z & 1'b1;\nendmodule\n";
      "module m;\n input a, $v0;\n output z;\n assign z = ~(a ^ $v0) | a;\nendmodule\n";
      "module m;\n input a;\n output q;\n dff (q, q);\n dff (ck, p, a);\nendmodule\n";
      "module m;\n input a;\n output z;\n assign z = a;\n dff (q, z);\nendmodule\n";
      "module m;\n input a;\n output z;\n assign z = 1'b0;\nendmodule\n";
    ]

(* ------------------------------------------------------------------ *)
(* Delta (incremental edits)                                          *)
(* ------------------------------------------------------------------ *)

let delta_err name expected c ops =
  match Delta.apply c ops with
  | Ok _ -> Alcotest.failf "%s: expected %s, got Ok" name expected
  | Error e ->
      check Alcotest.string name expected (Delta.error_to_string e);
      e

let test_delta_error_paths () =
  let c = Generator.c17 () in
  (* "22" is the only reader of "10"; the typed error names both ends. *)
  (match delta_err "remove still-referenced"
           (Delta.error_to_string
              (Delta.Still_referenced { removed = "10"; by = "22" }))
           c [ Delta.Remove_cell "10" ]
   with
  | Delta.Still_referenced { removed; by } ->
      check Alcotest.string "removed" "10" removed;
      check Alcotest.string "by" "22" by
  | e -> Alcotest.failf "wrong error: %s" (Delta.error_to_string e));
  (match delta_err "duplicate add"
           (Delta.error_to_string (Delta.Duplicate_cell "16"))
           c [ Delta.Add_cell { name = "16"; kind = Gate.And; fanins = [ "1"; "2" ] } ]
   with
  | Delta.Duplicate_cell n -> check Alcotest.string "dup name" "16" n
  | e -> Alcotest.failf "wrong error: %s" (Delta.error_to_string e));
  (match delta_err "rewire to unknown net"
           (Delta.error_to_string (Delta.Unknown_net { cell = "22"; net = "nope" }))
           c [ Delta.Rewire { cell = "22"; pin = 0; net = "nope" } ]
   with
  | Delta.Unknown_net { cell; net } ->
      check Alcotest.string "cell" "22" cell;
      check Alcotest.string "net" "nope" net
  | e -> Alcotest.failf "wrong error: %s" (Delta.error_to_string e));
  (match delta_err "remove unknown cell"
           (Delta.error_to_string (Delta.Unknown_cell "ghost"))
           c [ Delta.Remove_cell "ghost" ]
   with
  | Delta.Unknown_cell n -> check Alcotest.string "ghost" "ghost" n
  | e -> Alcotest.failf "wrong error: %s" (Delta.error_to_string e));
  (match delta_err "rewire bad pin"
           (Delta.error_to_string (Delta.Bad_pin { cell = "22"; pin = 5 }))
           c [ Delta.Rewire { cell = "22"; pin = 5; net = "16" } ]
   with
  | Delta.Bad_pin { cell; pin } ->
      check Alcotest.string "cell" "22" cell;
      checki "pin" 5 pin
  | e -> Alcotest.failf "wrong error: %s" (Delta.error_to_string e));
  (* Pointing "10" at its own reader closes a combinational cycle; the
     builder rejects the rebuilt circuit. *)
  (match Delta.apply c [ Delta.Rewire { cell = "10"; pin = 0; net = "22" } ] with
  | Error (Delta.Invalid _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Delta.error_to_string e)
  | Ok _ -> Alcotest.fail "cycle-closing rewire accepted")

let test_delta_apply_basic () =
  let c = Generator.c17 () in
  checkb "empty delta is empty" true (Delta.is_empty []);
  checkb "non-empty delta" false
    (Delta.is_empty [ Delta.Set_output { net = "16"; output = true } ]);
  (* New observation point: one more PO, same gates, simulation intact. *)
  match Delta.apply c [ Delta.Set_output { net = "16"; output = true } ] with
  | Error e -> Alcotest.failf "set_output failed: %s" (Delta.error_to_string e)
  | Ok edited ->
      let s = Stats.compute edited in
      checki "outputs" 3 s.Stats.num_outputs;
      checki "gates" 6 s.Stats.num_gates;
      checkb "edited validates" true (Result.is_ok (Circuit.validate edited))

let qcheck_delta_random_applies =
  QCheck.Test.make ~name:"random deltas apply cleanly and canonically" ~count:60
    QCheck.(small_int)
    (fun seed ->
      let rng = Rng.create (seed + 1) in
      let c =
        Generator.random ~rng ~num_inputs:5 ~num_gates:40 ~num_dff:4
          ~num_outputs:6 ()
      in
      let delta = Delta.random ~seed ~frac:0.08 c in
      match Delta.apply c delta with
      | Error e ->
          QCheck.Test.fail_reportf "Delta.random apply failed: %s"
            (Delta.error_to_string e)
      | Ok edited ->
          Result.is_ok (Circuit.validate edited)
          &&
          (* apply rebuilds canonically, so the empty delta on its own
             output is the byte-level identity. *)
          (match Delta.apply edited [] with
          | Ok again ->
              String.equal (Bench_format.to_string edited)
                (Bench_format.to_string again)
          | Error _ -> false))

(* [Delta.apply] as it was before the rebuild moved to
   [Elaborate.canonical] lives in test/reference_delta.ml. *)

(* Random edits, valid or not: gates of every arity reading existing or
   unknown names, removals of cells still read, rewires that close a
   combinational cycle or point a pin out of range, duplicate adds and
   output marks of unknown signals. *)
let random_ops rng c =
  let names =
    Array.map (fun (nd : Circuit.node) -> nd.Circuit.name) c.Circuit.nodes
  in
  let any () =
    if Rng.int rng 8 = 0 then Rng.pick rng [| "zz0"; "zz1"; "zz2" |]
    else Rng.pick rng names
  in
  let pins name =
    match Circuit.find c name with
    | Some i -> Array.length (Circuit.node c i).Circuit.fanins
    | None -> 0
  in
  (* A gate's combinational reader a few levels up, if it has one. *)
  let rec reader i steps =
    let up =
      List.filter
        (fun r -> Gate.is_combinational (Circuit.node c r).Circuit.kind)
        (Array.to_list c.Circuit.fanouts.(i))
    in
    if up = [] || steps = 0 then i
    else reader (List.nth up (Rng.int rng (List.length up))) (steps - 1)
  in
  let kinds =
    [| Gate.And; Gate.Or; Gate.Not; Gate.Buf; Gate.Xor; Gate.Dff; Gate.Input;
       Gate.Const1 |]
  in
  List.init (Rng.int_in rng 1 4) (fun _ ->
      match Rng.int rng 6 with
      | 0 ->
          let kind = Rng.pick rng kinds in
          let arity =
            match kind with
            | Gate.Not | Gate.Buf | Gate.Dff -> 1
            | Gate.Input | Gate.Const1 -> 0
            | _ -> Rng.int_in rng 1 3
          in
          Delta.Add_cell
            { name = any (); kind; fanins = List.init arity (fun _ -> any ()) }
      | 1 -> Delta.Remove_cell (any ())
      | 2 ->
          let cell = any () in
          let n = pins cell in
          let pin = if n = 0 || Rng.int rng 6 = 0 then n else Rng.int rng n in
          Delta.Rewire { cell; pin; net = any () }
      | 3 -> (
          let i = Rng.int rng (Circuit.num_nodes c) in
          let nd = Circuit.node c i in
          match nd.Circuit.fanins with
          | [||] -> Delta.Remove_cell nd.Circuit.name
          | fanins ->
              let r = reader i (Rng.int_in rng 1 4) in
              Delta.Rewire
                {
                  cell = nd.Circuit.name;
                  pin = Rng.int rng (Array.length fanins);
                  net = (Circuit.node c r).Circuit.name;
                })
      | _ -> Delta.Set_output { net = any (); output = Rng.bool rng })

let qcheck_delta_apply_reference =
  QCheck.Test.make ~name:"apply = reference (random and invalid deltas)"
    ~count:300 QCheck.small_int (fun seed ->
      let rng = Rng.create ((seed * 104729) + 3) in
      let c =
        Generator.random ~rng ~num_inputs:(Rng.int_in rng 1 6)
          ~num_gates:(Rng.int_in rng 1 60) ~num_dff:(Rng.int rng 6)
          ~num_outputs:(Rng.int_in rng 1 6) ()
      in
      let valid =
        if Rng.bool rng then Delta.random ~seed ~frac:0.05 c else []
      in
      let ops = valid @ random_ops rng c in
      Delta.apply c ops = References.Reference_delta.apply c ops)

(* The reference read 0.677 Mw on s38584 with the seed-1 1% delta. *)
let test_delta_apply_allocation () =
  let c =
    Lazy.force
      (Option.get (Experiments.Suite.find "s38584")).Experiments.Suite.circuit
  in
  let delta = Delta.random ~seed:1 ~frac:0.01 c in
  checkb "s38584's delta applies as the reference applies it" true
    (Delta.apply c delta = References.Reference_delta.apply c delta);
  let words = Test_util.words_during (fun () -> ignore (Delta.apply c delta)) in
  if words > 0.70e6 then
    Alcotest.failf "Delta.apply allocated %.3f Mw on s38584 (bound 0.70)"
      (words /. 1e6)

let qc t = QCheck_alcotest.to_alcotest t

let () =
  Alcotest.run "netlist"
    [
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "copy" `Quick test_rng_copy;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "sample" `Quick test_rng_sample;
          Alcotest.test_case "shuffle" `Quick test_rng_shuffle_permutes;
          Alcotest.test_case "invalid args" `Quick test_rng_invalid;
          qc qcheck_rng_matches_reference;
          Alcotest.test_case "chance allocates nothing" `Quick
            test_rng_chance_allocation;
        ] );
      ( "vec",
        [
          Alcotest.test_case "basic ops" `Quick test_vec_basic;
          Alcotest.test_case "bounds" `Quick test_vec_bounds;
          Alcotest.test_case "iteri" `Quick test_vec_iteri;
        ] );
      ( "gate",
        [
          Alcotest.test_case "truth tables" `Quick test_gate_truth_tables;
          Alcotest.test_case "string roundtrip" `Quick test_gate_string_roundtrip;
          qc qcheck_gate_of_substring;
          Alcotest.test_case "bad arity" `Quick test_gate_bad_arity;
          qc qcheck_demorgan;
          qc qcheck_xor_assoc;
        ] );
      ( "circuit",
        [
          Alcotest.test_case "builder basics" `Quick test_builder_basic;
          Alcotest.test_case "duplicate names" `Quick test_builder_duplicate_name;
          Alcotest.test_case "dff feedback" `Quick test_builder_dff_feedback;
          Alcotest.test_case "unconnected dff" `Quick test_builder_unconnected_dff;
          Alcotest.test_case "spent after finish" `Quick
            test_builder_spent_after_finish;
          Alcotest.test_case "levels/depth" `Quick test_levels_and_depth;
          Alcotest.test_case "topological order" `Quick test_topological_order;
          qc qcheck_order_and_fanouts_reference;
          qc qcheck_topo_oracle;
        ] );
      ( "bench_format",
        [
          Alcotest.test_case "parse c17" `Quick test_bench_parse_c17_text;
          Alcotest.test_case "use before def" `Quick test_bench_use_before_def;
          Alcotest.test_case "sequential feedback" `Quick
            test_bench_sequential_feedback;
          Alcotest.test_case "errors" `Quick test_bench_errors;
          Alcotest.test_case "error line numbers" `Quick test_bench_error_lines;
          Alcotest.test_case "roundtrip" `Quick test_bench_roundtrip;
          qc qcheck_bench_roundtrip;
          Alcotest.test_case "= reference on edge cases" `Quick
            test_bench_parse_reference_cases;
          qc qcheck_bench_parse_reference;
          Alcotest.test_case "allocation (s38584)" `Quick
            test_bench_parse_allocation;
        ] );
      ( "transform",
        [
          Alcotest.test_case "constant propagation" `Quick test_const_propagation;
          Alcotest.test_case "constant output" `Quick
            test_const_propagation_to_output;
          Alcotest.test_case "buffer collapsing" `Quick test_collapse_buffers;
          Alcotest.test_case "structural hashing" `Quick test_strash;
          Alcotest.test_case "dead sweep" `Quick test_sweep;
          Alcotest.test_case "optimize on generator" `Quick
            test_optimize_shrinks_generator;
          qc qcheck_optimize_equivalence;
          qc qcheck_sweep_reference;
        ] );
      ( "blif",
        [
          Alcotest.test_case "parse basic" `Quick test_blif_parse_basic;
          Alcotest.test_case "off-set cover" `Quick test_blif_offset_cover;
          Alcotest.test_case "constants and latches" `Quick
            test_blif_constants_and_latch;
          Alcotest.test_case "errors" `Quick test_blif_errors;
          Alcotest.test_case "error line numbers" `Quick test_blif_error_lines;
          Alcotest.test_case "roundtrip" `Quick test_blif_roundtrip;
          Alcotest.test_case "line continuations" `Quick
            test_blif_continuation_lines;
          qc qcheck_blif_roundtrip;
          Alcotest.test_case "= reference on edge cases" `Quick
            test_blif_reference_cases;
          qc qcheck_blif_reference;
          qc qcheck_parsers_never_raise;
          qc qcheck_parsers_never_raise_structured;
        ] );
      ( "verilog",
        [
          Alcotest.test_case "parse c17" `Quick test_verilog_parse_c17;
          Alcotest.test_case "assign expressions" `Quick
            test_verilog_assign_expressions;
          Alcotest.test_case "dff forms" `Quick test_verilog_dff_forms;
          Alcotest.test_case "comments and errors" `Quick
            test_verilog_comments_and_errors;
          Alcotest.test_case "roundtrip" `Quick test_verilog_roundtrip;
          qc qcheck_verilog_roundtrip;
          Alcotest.test_case "= reference on edge cases" `Quick
            test_verilog_reference_cases;
          qc qcheck_verilog_reference;
        ] );
      ( "simulate+generators",
        [
          Alcotest.test_case "c17 truth table" `Quick test_c17_truth_table;
          qc qcheck_adder_adds;
          qc qcheck_multiplier_multiplies;
          Alcotest.test_case "alu ops" `Quick test_alu_ops;
          Alcotest.test_case "ecc clean path" `Quick test_ecc_no_error;
          Alcotest.test_case "ecc corrects errors" `Quick
            test_ecc_corrects_single_error;
          Alcotest.test_case "adder/comparator" `Quick test_adder_comparator;
          Alcotest.test_case "dff toggle" `Quick test_counter_via_dff;
          Alcotest.test_case "clustered well-formed" `Quick
            test_clustered_wellformed;
          Alcotest.test_case "clustered deterministic" `Quick
            test_clustered_deterministic;
          Alcotest.test_case "generators pinned" `Quick
            test_generators_pinned;
          qc qcheck_random_circuit_valid;
          Alcotest.test_case "stats" `Quick test_stats;
        ] );
      ( "delta",
        [
          Alcotest.test_case "typed error paths" `Quick test_delta_error_paths;
          Alcotest.test_case "apply basics" `Quick test_delta_apply_basic;
          qc qcheck_delta_random_applies;
          qc qcheck_delta_apply_reference;
          Alcotest.test_case "allocation (s38584)" `Quick
            test_delta_apply_allocation;
        ] );
    ]
