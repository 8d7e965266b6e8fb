(* psi of the [m] adjacency vectors [supports.(off .. off + m - 1)]. *)
let of_range supports off m =
  if m <= 1 then 0
  else begin
    (* An input contributes iff it appears in exactly one adjacency
       vector: [once] holds the pins seen at least once, [twice] those
       seen at least twice, so psi = sum_i |A_i /\ (once \ twice)|
       = |once \ twice|, in O(m) without allocating. *)
    let once = ref Bitvec.empty and twice = ref Bitvec.empty in
    for i = off to off + m - 1 do
      let a = supports.(i) in
      twice := Bitvec.union !twice (Bitvec.inter !once a);
      once := Bitvec.union !once a
    done;
    Bitvec.norm (Bitvec.diff !once !twice)
  end

let of_supports supports = of_range supports 0 (Array.length supports)

let of_cell (c : Hypergraph.cell) = of_supports c.Hypergraph.supports

let replicable ~threshold (g : Hypergraph.Flat.t) c =
  let m = g.Hypergraph.Flat.outputs.(c) in
  m > 1
  && of_range g.Hypergraph.Flat.supports g.Hypergraph.Flat.sup_off.(c) m
     >= threshold

type distribution = {
  single_output : int;
  multi_by_psi : (int * int) list;
  total : int;
}

let distribution h =
  (* psi counts the inputs of one cell, so it is at most the width. *)
  let counts = Array.make (Bitvec.max_width + 1) 0 in
  let single = ref 0 in
  let total = Hypergraph.num_cells h in
  for i = 0 to total - 1 do
    let c = Hypergraph.cell h i in
    if Array.length c.Hypergraph.outputs <= 1 then incr single
    else begin
      let psi = of_cell c in
      counts.(psi) <- counts.(psi) + 1
    end
  done;
  let multi = ref [] in
  for psi = Bitvec.max_width downto 0 do
    if counts.(psi) > 0 then multi := (psi, counts.(psi)) :: !multi
  done;
  { single_output = !single; multi_by_psi = !multi; total }

let max_replication_factor d ~threshold =
  List.fold_left
    (fun acc (psi, n) -> if psi >= threshold then acc + n else acc)
    0 d.multi_by_psi

let pp_distribution fmt d =
  let pct n = 100.0 *. float_of_int n /. float_of_int (max 1 d.total) in
  Format.fprintf fmt "@[<v>single-output: %5.1f%%@," (pct d.single_output);
  List.iter
    (fun (psi, n) -> Format.fprintf fmt "psi = %2d     : %5.1f%%@," psi (pct n))
    d.multi_by_psi;
  Format.fprintf fmt "@]"
