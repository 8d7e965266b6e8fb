type vectors = {
  c_i : Bitvec.t;
  q_i : Bitvec.t;
  c_o : Bitvec.t;
  q_o : Bitvec.t;
  n_inputs : int;
  n_outputs : int;
}

let vectors st cell =
  let side =
    match Partition_state.single_side st cell with
    | Some s -> s
    | None -> invalid_arg "Gain.vectors: cell is replicated"
  in
  let hg = Partition_state.hypergraph st in
  let c = Hypergraph.cell hg cell in
  let conn s n =
    (* Connections on a side, read through the public counters: recompute
       via recompute would be wasteful; expose through eval of identity is
       impossible -- so Partition_state exports conn counts. *)
    Partition_state.connections st s n
  in
  let here = side and there = Partition_state.opposite side in
  let classify n =
    (* "A net is critical if one move changes its state": a cut net leaves
       the cut when the cell holds its side's only connection; an uncut
       net (necessarily all on the cell's side) enters the cut when some
       other connection stays behind. *)
    let ch = conn here n and ct = conn there n in
    let cut = ch > 0 && ct > 0 in
    let critical = if cut then ch = 1 else ch >= 2 in
    (cut, critical)
  in
  let build nets =
    Array.to_list nets
    |> List.mapi (fun pin n -> (pin, classify n))
    |> List.fold_left
         (fun (cv, qv) (pin, (cut, critical)) ->
           ( (if cut then Bitvec.add pin cv else cv),
             if critical then Bitvec.add pin qv else qv ))
         (Bitvec.empty, Bitvec.empty)
  in
  let c_i, q_i = build c.Hypergraph.inputs in
  let c_o, q_o = build c.Hypergraph.outputs in
  {
    c_i;
    q_i;
    c_o;
    q_o;
    n_inputs = Array.length c.Hypergraph.inputs;
    n_outputs = Array.length c.Hypergraph.outputs;
  }

let single_move v =
  let norm = Bitvec.norm in
  let notw w x = Bitvec.complement w x in
  norm (Bitvec.inter v.c_i v.q_i)
  + norm (Bitvec.inter v.c_o v.q_o)
  - norm (Bitvec.inter (notw v.n_inputs v.c_i) v.q_i)
  - norm (Bitvec.inter (notw v.n_outputs v.c_o) v.q_o)

let traditional_replication v =
  Bitvec.norm v.c_i + Bitvec.norm v.c_o - v.n_inputs

let flip current o =
  if Bitvec.mem o current then Bitvec.remove o current
  else Bitvec.add o current

let functional_replication st cell ~threshold =
  let hg = Partition_state.hypergraph st in
  let c = Hypergraph.cell hg cell in
  if not (Replication_potential.replicable ~threshold c) then None
  else begin
    let current = Partition_state.mask st cell in
    let m = Array.length c.Hypergraph.outputs in
    let best = ref None in
    for o = 0 to m - 1 do
      (* Migrate output o to the other side (flip its bit). *)
      let mask = flip current o in
      let d = Partition_state.eval st cell mask in
      let gain = -d.Partition_state.d_cut in
      match !best with
      | Some (g, _) when g >= gain -> ()
      | _ -> best := Some (gain, o)
    done;
    !best
  end

(* Candidate masks are generated each exactly once, so no dedupe pass (or
   allocation) is needed downstream. The collisions the old List.exists
   dedupe absorbed are structural and excluded at the source:
   - a single-output cell's one "migration" flip IS the whole-cell
     complement (never generated twice: replication is gated on m > 1, and
     the replicated branch requires m >= 2);
   - for a replicated cell, flipping its only B-output regenerates [empty]
     and flipping its only A-output regenerates [full], so the explicit
     un-replication masks are emitted only when no flip produced them.
   The complement of a replicated mask differs from the current mask in
   every one of the m >= 2 output positions, so it never collides with a
   single-bit flip; and [empty]/[full] equal the complement only when the
   cell is single-sided, in which case the replicated branch is dead. *)
let iter_masks st ~replication cell ~f =
  let hg = Partition_state.hypergraph st in
  let c = Hypergraph.cell hg cell in
  let m = Array.length c.Hypergraph.outputs in
  let current = Partition_state.mask st cell in
  (* Whole-cell move / side swap of all outputs. *)
  let comp = Bitvec.complement m current in
  if not (Bitvec.equal comp current) then f comp;
  if Partition_state.is_replicated st cell then begin
    (* Already replicated: adjust the split or un-replicate. Split
       adjustment and un-replication are always allowed -- the threshold
       gates creating replicas, not removing them. *)
    for o = 0 to m - 1 do
      f (flip current o)
    done;
    if Bitvec.norm current <> 1 then f Bitvec.empty;
    if Bitvec.norm current <> m - 1 then f (Bitvec.full m)
  end
  else
    (* Replication creation: migrate one output. *)
    match replication with
    | `None -> ()
    | `Functional threshold ->
        if m > 1 && Replication_potential.replicable ~threshold c then
          for o = 0 to m - 1 do
            f (flip current o)
          done

let best_mask_change st ~replication cell =
  let candidates = ref [] in
  iter_masks st ~replication cell ~f:(fun mask ->
      candidates := (mask, Partition_state.eval st cell mask) :: !candidates);
  !candidates
