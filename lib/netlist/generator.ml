module B = Circuit.Builder

(* A gate under an invented name. *)
let gate b kind fanins = B.gate b ~name:(B.fresh_name b) kind fanins

(* Shared small combinational building blocks. *)

let full_adder b a bb cin =
  let axb = gate b Gate.Xor [| a; bb |] in
  let sum = gate b Gate.Xor [| axb; cin |] in
  let t1 = gate b Gate.And [| a; bb |] in
  let t2 = gate b Gate.And [| axb; cin |] in
  let cout = gate b Gate.Or [| t1; t2 |] in
  (sum, cout)

let half_adder b a bb =
  let sum = gate b Gate.Xor [| a; bb |] in
  let cout = gate b Gate.And [| a; bb |] in
  (sum, cout)

(* 2-to-1 multiplexer: [s] = 0 picks [a]. *)
let mux2 b s a bb =
  let ns = gate b Gate.Not [| s |] in
  let ta = gate b Gate.And [| ns; a |] in
  let tb = gate b Gate.And [| s; bb |] in
  gate b Gate.Or [| ta; tb |]

(* Balanced gate tree over [ids] (arity folded to 2). *)
let rec tree b kind ids =
  match ids with
  | [] -> invalid_arg "Generator.tree: empty"
  | [ x ] -> x
  | _ ->
      let rec pair = function
        | x :: y :: rest -> gate b kind [| x; y |] :: pair rest
        | rest -> rest
      in
      tree b kind (pair ids)

let c17 () =
  let b = B.create ~name:"c17" () in
  let g1 = B.input b "1" in
  let g2 = B.input b "2" in
  let g3 = B.input b "3" in
  let g6 = B.input b "6" in
  let g7 = B.input b "7" in
  let g10 = B.gate b ~name:"10" Gate.Nand [| g1; g3 |] in
  let g11 = B.gate b ~name:"11" Gate.Nand [| g3; g6 |] in
  let g16 = B.gate b ~name:"16" Gate.Nand [| g2; g11 |] in
  let g19 = B.gate b ~name:"19" Gate.Nand [| g11; g7 |] in
  let g22 = B.gate b ~name:"22" Gate.Nand [| g10; g16 |] in
  let g23 = B.gate b ~name:"23" Gate.Nand [| g16; g19 |] in
  B.mark_output b g22;
  B.mark_output b g23;
  B.finish b

let ripple_adder ?(name = "adder") ~bits () =
  if bits < 1 then invalid_arg "Generator.ripple_adder: bits >= 1";
  let b = B.create ~name () in
  let a = Array.init bits (fun i -> B.input b (Printf.sprintf "a%d" i)) in
  let bb = Array.init bits (fun i -> B.input b (Printf.sprintf "b%d" i)) in
  let cin = B.input b "cin" in
  let carry = ref cin in
  for i = 0 to bits - 1 do
    let s, c = full_adder b a.(i) bb.(i) !carry in
    B.mark_output b s;
    carry := c
  done;
  B.mark_output b !carry;
  B.finish b

let multiplier ?(name = "multiplier") ~bits () =
  if bits < 2 then invalid_arg "Generator.multiplier: bits >= 2";
  let b = B.create ~name () in
  let a = Array.init bits (fun i -> B.input b (Printf.sprintf "a%d" i)) in
  let bb = Array.init bits (fun i -> B.input b (Printf.sprintf "b%d" i)) in
  (* Array multiplier: partial-product row i is a_j AND b_i shifted left by
     i; rows are accumulated into [acc] with ripple-carry adder rows, the
     same adder-array structure as c6288. *)
  let pp i j = gate b Gate.And [| a.(j); bb.(i) |] in
  let width = 2 * bits in
  let acc = Array.make width None in
  for j = 0 to bits - 1 do
    acc.(j) <- Some (pp 0 j)
  done;
  for i = 1 to bits - 1 do
    let carry = ref None in
    for j = 0 to bits - 1 do
      let pos = i + j in
      let bit = pp i j in
      match (acc.(pos), !carry) with
      | None, None -> acc.(pos) <- Some bit
      | Some x, None ->
          let s, c = half_adder b bit x in
          acc.(pos) <- Some s;
          carry := Some c
      | None, Some cy ->
          let s, c = half_adder b bit cy in
          acc.(pos) <- Some s;
          carry := Some c
      | Some x, Some cy ->
          let s, c = full_adder b bit x cy in
          acc.(pos) <- Some s;
          carry := Some c
    done;
    (* Propagate the row's final carry into the upper accumulator bits. *)
    (* The product fits in [width] bits, so any carry signal generated out
       of the top position is identically 0 and may be dropped. *)
    let pos = ref (i + bits) in
    while !carry <> None && !pos < width do
      let cy = Option.get !carry in
      (match acc.(!pos) with
      | None ->
          acc.(!pos) <- Some cy;
          carry := None
      | Some x ->
          let s, c = half_adder b x cy in
          acc.(!pos) <- Some s;
          carry := Some c);
      incr pos
    done
  done;
  Array.iter (function Some s -> B.mark_output b s | None -> ()) acc;
  B.finish b

let alu ?(name = "alu") ~bits () =
  if bits < 1 then invalid_arg "Generator.alu: bits >= 1";
  let b = B.create ~name () in
  let a = Array.init bits (fun i -> B.input b (Printf.sprintf "a%d" i)) in
  let bb = Array.init bits (fun i -> B.input b (Printf.sprintf "b%d" i)) in
  let s0 = B.input b "s0" in
  let s1 = B.input b "s1" in
  let cin = B.input b "cin" in
  let carry = ref cin in
  let outs = ref [] in
  for i = 0 to bits - 1 do
    let f_and = gate b Gate.And [| a.(i); bb.(i) |] in
    let f_or = gate b Gate.Or [| a.(i); bb.(i) |] in
    let f_xor = gate b Gate.Xor [| a.(i); bb.(i) |] in
    let f_sum, c = full_adder b a.(i) bb.(i) !carry in
    carry := c;
    let lo = mux2 b s0 f_and f_or in
    let hi = mux2 b s0 f_xor f_sum in
    let out = mux2 b s1 lo hi in
    B.mark_output b out;
    outs := out :: !outs
  done;
  B.mark_output b !carry;
  (* Zero detect over the selected outputs. *)
  let zero = gate b Gate.Nor (Array.of_list !outs) in
  B.mark_output b zero;
  B.finish b

(* Number of Hamming check bits needed to cover [data_bits] data bits. *)
let check_bits_for data_bits =
  let rec loop r = if (1 lsl r) - r - 1 >= data_bits then r else loop (r + 1) in
  loop 2

let ecc ?(name = "ecc") ~data_bits () =
  if data_bits < 4 then invalid_arg "Generator.ecc: data_bits >= 4";
  let r = check_bits_for data_bits in
  let b = B.create ~name () in
  let data = Array.init data_bits (fun i -> B.input b (Printf.sprintf "d%d" i)) in
  let check = Array.init r (fun i -> B.input b (Printf.sprintf "c%d" i)) in
  (* Hamming positions: data bit i sits at the i-th non-power-of-two code
     position (1-based); check bit j guards positions with bit j set. *)
  let positions = Array.make data_bits 0 in
  let pos = ref 1 and k = ref 0 in
  while !k < data_bits do
    let p = !pos in
    if p land (p - 1) <> 0 then begin
      positions.(!k) <- p;
      incr k
    end;
    incr pos
  done;
  (* Syndrome bit j = received check bit XOR parity of guarded data bits. *)
  let syndrome =
    Array.init r (fun j ->
        let guarded =
          Array.to_list
            (Array.of_seq
               (Seq.filter_map
                  (fun i ->
                    if positions.(i) land (1 lsl j) <> 0 then Some data.(i)
                    else None)
                  (Seq.init data_bits Fun.id)))
        in
        tree b Gate.Xor (check.(j) :: guarded))
  in
  Array.iter (fun s -> B.mark_output b s) syndrome;
  let not_syndrome = Array.map (fun s -> gate b Gate.Not [| s |]) syndrome in
  (* Corrected data bit i = data_i XOR (syndrome == position_i). *)
  for i = 0 to data_bits - 1 do
    let literals =
      List.init r (fun j ->
          if positions.(i) land (1 lsl j) <> 0 then syndrome.(j)
          else not_syndrome.(j))
    in
    let hit = tree b Gate.And literals in
    let corrected = gate b Gate.Xor [| data.(i); hit |] in
    B.mark_output b corrected
  done;
  B.finish b

let adder_comparator ?(name = "addcmp") ~bits () =
  if bits < 2 then invalid_arg "Generator.adder_comparator: bits >= 2";
  let b = B.create ~name () in
  let a = Array.init bits (fun i -> B.input b (Printf.sprintf "a%d" i)) in
  let bb = Array.init bits (fun i -> B.input b (Printf.sprintf "b%d" i)) in
  let cin = B.input b "cin" in
  (* Sum. *)
  let carry = ref cin in
  for i = 0 to bits - 1 do
    let s, c = full_adder b a.(i) bb.(i) !carry in
    B.mark_output b s;
    carry := c
  done;
  B.mark_output b !carry;
  (* Magnitude comparator: gt_i = a_i AND NOT b_i; eq_i = XNOR. *)
  let eq = Array.init bits (fun i -> gate b Gate.Xnor [| a.(i); bb.(i) |]) in
  let gt_terms =
    List.init bits (fun i ->
        let nb = gate b Gate.Not [| bb.(i) |] in
        let head = gate b Gate.And [| a.(i); nb |] in
        (* ANDed with equality of all higher bits. *)
        let highers = List.init (bits - 1 - i) (fun k -> eq.(i + 1 + k)) in
        match highers with
        | [] -> head
        | _ -> gate b Gate.And (Array.of_list (head :: highers)))
  in
  let gt = tree b Gate.Or gt_terms in
  let all_eq = tree b Gate.And (Array.to_list eq) in
  B.mark_output b gt;
  B.mark_output b all_eq;
  (* Parity of each operand. *)
  B.mark_output b (tree b Gate.Xor (Array.to_list a));
  B.mark_output b (tree b Gate.Xor (Array.to_list bb));
  B.finish b

type clustered_params = {
  clusters : int;
  gates_per_cluster : int;
  dffs_per_cluster : int;
  cluster_inputs : int;
  foreign_fraction : float;
  num_pi : int;
  num_po : int;
  seed : int;
}

let default_clustered =
  {
    clusters = 8;
    gates_per_cluster = 64;
    dffs_per_cluster = 8;
    cluster_inputs = 10;
    foreign_fraction = 0.25;
    num_pi = 24;
    num_po = 24;
    seed = 1;
  }

let comb_kinds = [| Gate.And; Gate.Nand; Gate.Or; Gate.Nor; Gate.Xor; Gate.Xnor |]

(* The block recipe [clustered] and [scale] share. A block imports into a
   pool seeded with its own flip-flops (the caller pushes its foreign
   imports), builds a local DAG over the pool, wires its D pins and
   folds every unread import into the first one; at the end the stray
   primary inputs become one parity output. [used] records every signal
   something reads. *)

let own_pool dffs =
  let pool = Vec.create () in
  Array.iter (fun q -> ignore (Vec.push pool q)) dffs;
  pool

(* Local random DAG of [n] gates over [pool], with a quadratic bias
   toward the most recently created signals (locality): the bias
   concentrates fanout on a few recent signals, giving the long-tailed
   fanout distribution of real logic. *)
let local_dag rng b ~used pool n =
  let gates = Vec.create () in
  let pick_operand () =
    let n_pool = Vec.length pool and n_gates = Vec.length gates in
    let total = n_pool + n_gates in
    let r1 = Rng.int rng total in
    let r2 = Rng.int rng total in
    let idx = max r1 r2 in
    let s =
      if idx < n_pool then Vec.get pool idx else Vec.get gates (idx - n_pool)
    in
    Hashtbl.replace used s ();
    s
  in
  for _ = 1 to n do
    let kind = Rng.pick rng comb_kinds in
    let arity = Rng.int_in rng 2 4 in
    let fanins = Array.init arity (fun _ -> pick_operand ()) in
    ignore (Vec.push gates (gate b kind fanins))
  done;
  gates

(* Wire the block's D pins: pin [k] gets [drive local] for a fresh
   [local ()] signal, except that the first pin XORs its local signal
   with every still-unread pool import, so every import is genuinely
   read. *)
let wire_dffs b ~used pool dffs ~local ~drive =
  let unused =
    Vec.fold_left
      (fun acc s -> if Hashtbl.mem used s then acc else s :: acc)
      [] pool
  in
  List.iter (fun s -> Hashtbl.replace used s ()) unused;
  Array.iteri
    (fun k q ->
      let local = local () in
      let d =
        if k = 0 && unused <> [] then tree b Gate.Xor (local :: unused)
        else drive local
      in
      B.connect_dff b q d)
    dffs

(* Every primary input must be read: fold strays into one extra parity
   output. *)
let read_strays b ~used pis =
  let stray =
    List.filter (fun pi -> not (Hashtbl.mem used pi)) (Array.to_list pis)
  in
  match stray with
  | [] -> ()
  | [ s ] -> B.mark_output b (gate b Gate.Buf [| s |])
  | _ -> B.mark_output b (tree b Gate.Xor stray)

let clustered ?(name = "clustered") p =
  if p.clusters < 1 || p.num_pi < 2 || p.num_po < 1 then
    invalid_arg "Generator.clustered: bad parameters";
  let rng = Rng.create p.seed in
  let b = B.create ~name () in
  let pis = Array.init p.num_pi (fun i -> B.input b (Printf.sprintf "pi%d" i)) in
  (* All flip-flops exist up front so any cluster can read any Q, giving
     cross-cluster sequential feedback without combinational cycles. *)
  let dffs =
    Array.init p.clusters (fun c ->
        Array.init p.dffs_per_cluster (fun k ->
            B.dff_placeholder b (Printf.sprintf "q_%d_%d" c k)))
  in
  let exported = Vec.create () in
  (* combinational signals visible to later clusters *)
  let used = Hashtbl.create 256 in
  let cluster_signals = Array.make p.clusters [||] in
  for c = 0 to p.clusters - 1 do
    (* Import pool: own flip-flops, a slice of the primary inputs, and a few
       foreign signals (earlier clusters' exports or other clusters' Qs). *)
    let pool = own_pool dffs.(c) in
    let pi_share = max 2 (p.num_pi / p.clusters) in
    for _ = 1 to pi_share do
      ignore (Vec.push pool (Rng.pick rng pis))
    done;
    for _ = 1 to p.cluster_inputs do
      let foreign =
        Rng.chance rng p.foreign_fraction
        && (Vec.length exported > 0 || p.clusters > 1)
      in
      let s =
        if foreign && Vec.length exported > 0 then
          Vec.get exported (Rng.int rng (Vec.length exported))
        else if foreign then
          (* no exports yet: read a foreign flip-flop *)
          let oc = Rng.int rng p.clusters in
          if Array.length dffs.(oc) > 0 then Rng.pick rng dffs.(oc)
          else Rng.pick rng pis
        else Rng.pick rng pis
      in
      ignore (Vec.push pool s)
    done;
    let gates = local_dag rng b ~used pool p.gates_per_cluster in
    (* Each D pin reads a local signal. *)
    wire_dffs b ~used pool dffs.(c)
      ~local:(fun () ->
        if Vec.length gates > 0 then Vec.get gates (Rng.int rng (Vec.length gates))
        else Rng.pick rng pis)
      ~drive:Fun.id;
    let signals = Vec.to_array gates in
    cluster_signals.(c) <- signals;
    (* Export a handful of signals for later clusters. *)
    let n_export = max 1 (Array.length signals / 8) in
    for _ = 1 to n_export do
      if Array.length signals > 0 then
        ignore (Vec.push exported signals.(Rng.int rng (Array.length signals)))
    done
  done;
  (* Primary outputs: spread across clusters. *)
  let all_gates = Array.concat (Array.to_list cluster_signals) in
  if Array.length all_gates = 0 then invalid_arg "Generator.clustered: no gates";
  for _ = 1 to p.num_po do
    let g = all_gates.(Rng.int rng (Array.length all_gates)) in
    B.mark_output b g;
    Hashtbl.replace used g ()
  done;
  read_strays b ~used pis;
  B.finish b

type scale_params = {
  sc_gates : int;
  sc_block_gates : int;
  sc_blocks_per_region : int;
  sc_dffs_per_block : int;
  sc_region_imports : int;
  sc_global_fraction : float;
  sc_rent_exponent : float;
  sc_rent_coeff : float;
  sc_seed : int;
}

let default_scale =
  {
    sc_gates = 200_000;
    sc_block_gates = 56;
    sc_blocks_per_region = 24;
    sc_dffs_per_block = 10;
    sc_region_imports = 12;
    (* Global coupling sets the circuit's min-cut almost directly: every
       block exports one signal to the global pool, and a fraction of
       every block's imports come back out of it, so cross-region nets
       number about [global_fraction x imports x blocks]. 0.05 keeps a
       100k-cell circuit k-way partitionable under terminal budgets a few
       thousand wide — the regime the paper's cost minimization operates
       in — while still forcing real cut optimisation. *)
    sc_global_fraction = 0.05;
    sc_rent_exponent = 0.5;
    sc_rent_coeff = 1.6;
    sc_seed = 1;
  }

(* Two-level hierarchical generator for the 100k-1M cell range: leaf
   blocks of a few dozen gates (the [clustered] recipe) grouped into
   regions, with block imports drawn mostly from the surrounding region
   and only a small fraction from the global export pool. The two-level
   locality is what gives large real netlists their Rent-style wire-length
   distribution — and what makes them partitionable at all; a flat random
   graph of this size has no cut structure worth finding. Pad counts
   follow Rent's rule [IO = c * gates^r] instead of a fixed number, so the
   profile matches the paper's Table II shape as the size scales.
   Everything is deterministic in the seed and O(gates). *)
let scale ?(name = "scale") p =
  if
    p.sc_gates < 1 || p.sc_block_gates < 1 || p.sc_blocks_per_region < 1
    || p.sc_dffs_per_block < 1 || p.sc_region_imports < 0
    || p.sc_global_fraction < 0.0
    || p.sc_global_fraction > 1.0
    || p.sc_rent_exponent <= 0.0
    || p.sc_rent_exponent >= 1.0
    || p.sc_rent_coeff <= 0.0
  then invalid_arg "Generator.scale: bad parameters";
  let rng = Rng.create p.sc_seed in
  let b = B.create ~name () in
  let rent n =
    max 4
      (int_of_float
         (Float.round (p.sc_rent_coeff *. (float_of_int n ** p.sc_rent_exponent))))
  in
  let num_pi = rent p.sc_gates in
  let num_po = rent p.sc_gates in
  let pis = Array.init num_pi (fun i -> B.input b (Printf.sprintf "pi%d" i)) in
  let num_blocks = max 1 ((p.sc_gates + p.sc_block_gates - 1) / p.sc_block_gates) in
  let num_regions =
    (num_blocks + p.sc_blocks_per_region - 1) / p.sc_blocks_per_region
  in
  let region_of bi = bi / p.sc_blocks_per_region in
  (* All flip-flops exist up front so any block can read any Q: sequential
     feedback (cross-region included) flows through D pins only, keeping
     the circuit combinationally acyclic. *)
  let dffs =
    Array.init num_blocks (fun bi ->
        Array.init p.sc_dffs_per_block (fun k ->
            B.dff_placeholder b (Printf.sprintf "q_%d_%d" bi k)))
  in
  let region_exports = Array.init num_regions (fun _ -> Vec.create ()) in
  let global_exports = Vec.create () in
  let used = Hashtbl.create (4 * p.sc_gates) in
  let po_pool = Vec.create () in
  for bi = 0 to num_blocks - 1 do
    let r = region_of bi in
    let pool = own_pool dffs.(bi) in
    (* A couple of primary inputs reach every block directly; the rest of
       the import budget is regional with a global minority. *)
    for _ = 1 to 2 do
      ignore (Vec.push pool (Rng.pick rng pis))
    done;
    let regional = region_exports.(r) in
    for _ = 1 to p.sc_region_imports do
      let global = Rng.chance rng p.sc_global_fraction in
      let s =
        if global && Vec.length global_exports > 0 then
          Vec.get global_exports (Rng.int rng (Vec.length global_exports))
        else if global then
          (* nothing exported yet: read a foreign flip-flop *)
          Rng.pick rng dffs.(Rng.int rng num_blocks)
        else if Vec.length regional > 0 then
          Vec.get regional (Rng.int rng (Vec.length regional))
        else Rng.pick rng pis
      in
      ignore (Vec.push pool s)
    done;
    let gates = local_dag rng b ~used pool p.sc_block_gates in
    wire_dffs b ~used pool dffs.(bi)
      ~local:(fun () -> Vec.get gates (Rng.int rng (Vec.length gates)))
      ~drive:(fun local ->
        (* A dedicated fanout-1 driver per D pin, never exported and
           never a PO, so technology mapping fuses every flip-flop with
           its input cone into one cell. Reusing a shared local gate
           here leaves the flip-flop as a 1-input identity cell, and the
           packer then pairs those leftovers with whatever unrelated
           cell is available — tens of thousands of random cross-region
           links that erase the Rent profile this generator exists to
           produce. *)
        gate b (Rng.pick rng comb_kinds)
          [| local; Vec.get gates (Rng.int rng (Vec.length gates)) |]);
    (* Exports: a slice of the block's signals feeds the region, a trickle
       feeds the global pool. *)
    let n = Vec.length gates in
    for _ = 1 to max 1 (n / 8) do
      ignore (Vec.push regional (Vec.get gates (Rng.int rng n)))
    done;
    ignore (Vec.push global_exports (Vec.get gates (Rng.int rng n)));
    ignore (Vec.push po_pool (Vec.get gates (Rng.int rng n)))
  done;
  for _ = 1 to num_po do
    let g = Vec.get po_pool (Rng.int rng (Vec.length po_pool)) in
    B.mark_output b g;
    Hashtbl.replace used g ()
  done;
  read_strays b ~used pis;
  B.finish b

let random ~rng ?(name = "random") ~num_inputs ~num_gates ~num_dff ~num_outputs () =
  if num_inputs < 1 || num_gates < 1 || num_outputs < 1 || num_dff < 0 then
    invalid_arg "Generator.random: bad parameters";
  let b = B.create ~name () in
  let pis = Array.init num_inputs (fun i -> B.input b (Printf.sprintf "pi%d" i)) in
  let dffs = Array.init num_dff (fun k -> B.dff_placeholder b (Printf.sprintf "q%d" k)) in
  let pool = Vec.create () in
  Array.iter (fun s -> ignore (Vec.push pool s)) pis;
  Array.iter (fun s -> ignore (Vec.push pool s)) dffs;
  let gates = Vec.create () in
  for _ = 1 to num_gates do
    let kind = Rng.pick rng comb_kinds in
    let arity = Rng.int_in rng 1 4 in
    let kind = if arity = 1 then (if Rng.bool rng then Gate.Not else Gate.Buf) else kind in
    let fanins = Array.init arity (fun _ -> Vec.get pool (Rng.int rng (Vec.length pool))) in
    let g = gate b kind fanins in
    ignore (Vec.push pool g);
    ignore (Vec.push gates g)
  done;
  Array.iter
    (fun q ->
      B.connect_dff b q (Vec.get pool (Rng.int rng (Vec.length pool))))
    dffs;
  for _ = 1 to num_outputs do
    B.mark_output b (Vec.get gates (Rng.int rng (Vec.length gates)))
  done;
  B.finish b
