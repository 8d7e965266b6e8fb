open Netlist

type lut = {
  root : int;
  support : int array;
  table : int;
  cone_size : int;
}

let eval_lut lut pins =
  let idx = ref 0 in
  Array.iteri (fun i v -> if v then idx := !idx lor (1 lsl i)) pins;
  lut.table land (1 lsl !idx) <> 0

type cover = {
  luts : lut array;
  lut_of_root : int array;
}

let is_source c i =
  match (Circuit.node c i).Circuit.kind with
  | Gate.Input | Gate.Dff | Gate.Const0 | Gate.Const1 -> true
  | _ -> false

(* [proj.(p)]: the truth table of support pin [p] over five pins, bit [a]
   set when assignment [a] sets the pin. Its low [2^n] bits are the pin's
   table over [n] pins. *)
let proj = [| 0xAAAAAAAA; 0xCCCCCCCC; 0xF0F0F0F0; 0xFF00FF00; 0xFFFF0000 |]

(* Cone-growth workspace, node-indexed and reused across roots: a node is in
   the current root's cone (support) when its [in_cone] ([in_support])
   stamp is that root. [cone] lists the cone in absorption order, root
   first. [sup] holds the support in the order the first definition's
   16-bucket [Hashtbl] visited it: hash bucket ascending, then most
   recently added first. [tt] holds each evaluated node's truth table. *)
type workspace = {
  in_cone : int array;
  in_support : int array;
  cone : int array;
  mutable cone_len : int;
  sup : int array;
  sup_bucket : int array;
  mutable sup_len : int;
  tt : int array;
}

let bucket f = Hashtbl.hash f land 15

let add_support s f =
  let b = bucket f in
  let pos = ref 0 in
  while !pos < s.sup_len && s.sup_bucket.(!pos) < b do
    incr pos
  done;
  for j = s.sup_len downto !pos + 1 do
    s.sup.(j) <- s.sup.(j - 1);
    s.sup_bucket.(j) <- s.sup_bucket.(j - 1)
  done;
  s.sup.(!pos) <- f;
  s.sup_bucket.(!pos) <- b;
  s.sup_len <- s.sup_len + 1

let remove_support s pos =
  for j = pos to s.sup_len - 2 do
    s.sup.(j) <- s.sup.(j + 1);
    s.sup_bucket.(j) <- s.sup_bucket.(j + 1)
  done;
  s.sup_len <- s.sup_len - 1

let add_to_cone s f r =
  s.in_cone.(f) <- r;
  s.cone.(s.cone_len) <- f;
  s.cone_len <- s.cone_len + 1

(* Add [f]'s fanins that are neither in the cone nor already support. *)
let add_fanins s c f r =
  let fanins = (Circuit.node c f).Circuit.fanins in
  for p = 0 to Array.length fanins - 1 do
    let g = fanins.(p) in
    if s.in_cone.(g) <> r && s.in_support.(g) <> r then begin
      s.in_support.(g) <- r;
      add_support s g
    end
  done

(* A support node may join the cone when it is a gate that must not stay
   visible and every reader of it is already inside. *)
let absorbable c ~must_root s f r =
  (not (is_source c f))
  && (not must_root.(f))
  &&
  let readers = c.Circuit.fanouts.(f) in
  let i = ref 0 in
  while !i < Array.length readers && s.in_cone.(readers.(!i)) = r do
    incr i
  done;
  !i = Array.length readers

(* One greedy step: absorb the support node that leaves the smallest
   support within [k], the first such in [sup] order on a tie. *)
let try_absorb c ~k ~must_root s r =
  let best = ref (-1) and best_size = ref max_int in
  for pos = 0 to s.sup_len - 1 do
    let f = s.sup.(pos) in
    if absorbable c ~must_root s f r then begin
      let fanins = (Circuit.node c f).Circuit.fanins in
      let gain = ref 0 in
      for p = 0 to Array.length fanins - 1 do
        let g = fanins.(p) in
        if s.in_support.(g) <> r && s.in_cone.(g) <> r then incr gain
      done;
      let new_size = s.sup_len - 1 + !gain in
      if new_size <= k && new_size < !best_size then begin
        best := pos;
        best_size := new_size
      end
    end
  done;
  if !best < 0 then false
  else begin
    let f = s.sup.(!best) in
    remove_support s !best;
    s.in_support.(f) <- -1;
    add_to_cone s f r;
    add_fanins s c f r;
    true
  end

(* Truth table of [f] over the [n] support pins: every fanin is a support
   pin or a cone node evaluated before it, so one bitwise operation per
   fanin covers all [2^n] assignments at once. *)
let and_tables s ~full fanins =
  let acc = ref full in
  for p = 0 to Array.length fanins - 1 do
    acc := !acc land s.tt.(fanins.(p))
  done;
  !acc

let or_tables s fanins =
  let acc = ref 0 in
  for p = 0 to Array.length fanins - 1 do
    acc := !acc lor s.tt.(fanins.(p))
  done;
  !acc

let xor_tables s fanins =
  let acc = ref 0 in
  for p = 0 to Array.length fanins - 1 do
    acc := !acc lxor s.tt.(fanins.(p))
  done;
  !acc

let node_table c s ~full f =
  let nd = Circuit.node c f in
  let fanins = nd.Circuit.fanins in
  match nd.Circuit.kind with
  | Gate.Const0 -> 0
  | Gate.Const1 -> full
  | Gate.And -> and_tables s ~full fanins
  | Gate.Nand -> full lxor and_tables s ~full fanins
  | Gate.Or -> or_tables s fanins
  | Gate.Nor -> full lxor or_tables s fanins
  | Gate.Xor -> xor_tables s fanins
  | Gate.Xnor -> full lxor xor_tables s fanins
  | Gate.Not -> full lxor s.tt.(fanins.(0))
  | Gate.Buf -> s.tt.(fanins.(0))
  | Gate.Input | Gate.Dff -> assert false

let insertion_sort (a : int array) =
  for i = 1 to Array.length a - 1 do
    let x = a.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && a.(!j) > x do
      a.(!j + 1) <- a.(!j);
      decr j
    done;
    a.(!j + 1) <- x
  done

let run ?(k = 4) c =
  if k < 1 || k > Mapped.max_inputs then
    invalid_arg
      (Printf.sprintf "Cover.run: LUT size k = %d outside 1..%d" k
         Mapped.max_inputs);
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
  let s =
    {
      in_cone = Array.make num (-1);
      in_support = Array.make num (-1);
      cone = Array.make num 0;
      cone_len = 0;
      sup = Array.make k 0;
      sup_bucket = Array.make k 0;
      sup_len = 0;
      tt = Array.make num 0;
    }
  in
  (* Reverse topological order: a root's support marks deeper nodes
     referenced before they are themselves considered. *)
  for idx = Array.length order - 1 downto 0 do
    let r = order.(idx) in
    if referenced.(r) && not (is_source c r) then begin
      (* Grow the cone greedily. *)
      s.cone_len <- 0;
      s.sup_len <- 0;
      add_to_cone s r r;
      add_fanins s c r r;
      while try_absorb c ~k ~must_root s r do
        ()
      done;
      (* Split support into constants (folded into the cone) and real
         pins. *)
      let n_pins = ref 0 in
      for pos = 0 to s.sup_len - 1 do
        let f = s.sup.(pos) in
        match (Circuit.node c f).Circuit.kind with
        | Gate.Const0 | Gate.Const1 -> add_to_cone s f r
        | _ -> incr n_pins
      done;
      let support = Array.make !n_pins 0 in
      let n = ref 0 in
      for pos = 0 to s.sup_len - 1 do
        let f = s.sup.(pos) in
        if s.in_cone.(f) <> r then begin
          support.(!n) <- f;
          incr n
        end
      done;
      insertion_sort support;
      let full = (1 lsl (1 lsl !n_pins)) - 1 in
      for p = 0 to !n_pins - 1 do
        s.tt.(support.(p)) <- proj.(p) land full
      done;
      (* Reverse absorption order is topological: a node joins the cone
         only once all its readers have. *)
      for j = s.cone_len - 1 downto 0 do
        let f = s.cone.(j) in
        s.tt.(f) <- node_table c s ~full f
      done;
      lut_of_root.(r) <-
        Vec.push luts
          { root = r; support; table = s.tt.(r); cone_size = s.cone_len };
      for p = 0 to !n_pins - 1 do
        referenced.(support.(p)) <- true
      done
    end
  done;
  { luts = Vec.to_array luts; lut_of_root }
