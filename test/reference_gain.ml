(* The closed forms of the paper's unified gain model (Section III,
   eqs. 7-11), kept as the oracle [Partition_state.eval_into] is checked
   against. They read a state's masks and the hypergraph its flat graph
   was built from only: every
   per-side connection count is recounted here from the masks and the
   cells' adjacency vectors, never read from the state's counters.

   For a cell on one side, the paper associates four binary vectors with
   its pins:
   - [c_i] / [c_o]: which input / output nets are in the cut set;
   - [q_i] / [q_o]: which are critical, i.e. one move changes their state
     (a cut net becomes uncut when the cell holds its side's only
     connection; an uncut net becomes cut when another connection stays
     behind).

   The forms count each pin once, so they assume a cell touches each net
   through one pin (true of mapped CLBs and of the test fixtures). *)

type vectors = {
  c_i : Bitvec.t;
  q_i : Bitvec.t;
  c_o : Bitvec.t;
  q_o : Bitvec.t;
  n_inputs : int;
  n_outputs : int;
  supports : Bitvec.t array;
}

(* Per-net connection counts of each side under the functional-replication
   rule: a copy carrying the outputs [m] connects the nets of those output
   pins and of the input pins in the union of their supports, once per
   net however many of its pins touch it. *)
let connections (hg : Hypergraph.t) st =
  let conn_a = Array.make hg.Hypergraph.num_nets 0
  and conn_b = Array.make hg.Hypergraph.num_nets 0 in
  let count (c : Hypergraph.cell) m conn =
    if not (Bitvec.is_empty m) then begin
      let nets = ref [] in
      Bitvec.iter
        (fun o ->
          nets := c.outputs.(o) :: !nets;
          Bitvec.iter (fun i -> nets := c.inputs.(i) :: !nets) c.supports.(o))
        m;
      List.iter
        (fun n -> conn.(n) <- conn.(n) + 1)
        (List.sort_uniq compare !nets)
    end
  in
  Array.iteri
    (fun id (c : Hypergraph.cell) ->
      let on_b = Partition_state.mask st id in
      let full = Bitvec.full (Array.length c.outputs) in
      count c (Bitvec.diff full on_b) conn_a;
      count c on_b conn_b)
    hg.Hypergraph.cells;
  (conn_a, conn_b)

(* [(cut, terminals A, terminals B)] counted from scratch: a net is cut
   when both sides connect it, and uses an IOB on a side it connects when
   it also leaves that side (to the other side or to an external pin). *)
let totals (hg : Hypergraph.t) st =
  let conn_a, conn_b = connections hg st in
  let cut = ref 0 and term_a = ref 0 and term_b = ref 0 in
  for n = 0 to hg.Hypergraph.num_nets - 1 do
    let a = conn_a.(n) > 0 and b = conn_b.(n) > 0 in
    let ext = hg.Hypergraph.net_external.(n) in
    if a && b then incr cut;
    if a && (b || ext) then incr term_a;
    if b && (a || ext) then incr term_b
  done;
  (!cut, !term_a, !term_b)

let vectors hg st cell =
  let (c : Hypergraph.cell) = Hypergraph.cell hg cell in
  let m = Partition_state.mask st cell in
  let n_outputs = Array.length c.outputs in
  let here, there =
    let conn_a, conn_b = connections hg st in
    if Bitvec.is_empty m then (conn_a, conn_b)
    else if Bitvec.equal m (Bitvec.full n_outputs) then (conn_b, conn_a)
    else invalid_arg "Reference_gain.vectors: cell is replicated"
  in
  let build nets =
    let cv = ref Bitvec.empty and qv = ref Bitvec.empty in
    Array.iteri
      (fun pin n ->
        let cut = here.(n) > 0 && there.(n) > 0 in
        if cut then cv := Bitvec.add pin !cv;
        if (cut && here.(n) = 1) || ((not cut) && here.(n) >= 2) then
          qv := Bitvec.add pin !qv)
      nets;
    (!cv, !qv)
  in
  let c_i, q_i = build c.inputs in
  let c_o, q_o = build c.outputs in
  {
    c_i;
    q_i;
    c_o;
    q_o;
    n_inputs = Array.length c.inputs;
    n_outputs;
    supports = c.supports;
  }

(* |c & q| - |~c & q| over the pins [pins]: the cut change of moving
   those pins' connections to the other side (each critical cut pin
   leaves the cut, each critical uncut pin enters it). *)
let moved_pins ~width c q pins =
  Bitvec.norm (Bitvec.inter pins (Bitvec.inter c q))
  - Bitvec.norm (Bitvec.inter pins (Bitvec.inter (Bitvec.complement width c) q))

(* Eq. (7): G_m = (|c_i & q_i| + |c_o & q_o|) - (|~c_i & q_i| + |~c_o & q_o|). *)
let single_move v =
  moved_pins ~width:v.n_inputs v.c_i v.q_i (Bitvec.full v.n_inputs)
  + moved_pins ~width:v.n_outputs v.c_o v.q_o (Bitvec.full v.n_outputs)

(* Eq. (8): G_tr = (|c_i| + |c_o|) - n. The replica connects every input
   net: all output nets leave the cut, all n input nets end up in it. *)
let traditional_replication v =
  Bitvec.norm v.c_i + Bitvec.norm v.c_o - v.n_inputs

(* Eq. (4): the input pins that control exactly one output. *)
let psi v =
  if v.n_outputs <= 1 then 0
  else
    let once = ref 0 in
    Array.iteri
      (fun o s ->
        let others = ref Bitvec.empty in
        Array.iteri
          (fun o' s' -> if o' <> o then others := Bitvec.union s' !others)
          v.supports;
        once := !once + Bitvec.norm (Bitvec.diff s !others))
      v.supports;
    !once

(* Eqs. (9)-(10): migrating output [o] to the other side. Its output pin
   moves; the input pins only [o] reads move with it (the original copy
   drops them); the other input pins of [o] stay connected at home and
   gain a connection on the other side, so each uncut one enters the
   cut. *)
let migration v o =
  let pin = Bitvec.singleton o in
  let s = v.supports.(o) in
  let exclusive = ref s in
  Array.iteri
    (fun o' s' -> if o' <> o then exclusive := Bitvec.diff !exclusive s')
    v.supports;
  let shared = Bitvec.diff s !exclusive in
  moved_pins ~width:v.n_outputs v.c_o v.q_o pin
  + moved_pins ~width:v.n_inputs v.c_i v.q_i !exclusive
  - Bitvec.norm (Bitvec.diff shared v.c_i)

(* Eq. (11): the best [(gain, output)] over single migrating outputs, the
   lowest output winning ties; [None] when the cell may not replicate
   (one output, or psi below the threshold). *)
let functional_replication v ~threshold =
  if v.n_outputs <= 1 || psi v < threshold then None
  else begin
    let best = ref None in
    for o = 0 to v.n_outputs - 1 do
      let g = migration v o in
      match !best with
      | Some (bg, _) when bg >= g -> ()
      | _ -> best := Some (g, o)
    done;
    !best
  end
