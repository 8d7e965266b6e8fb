(* Heavy-edge matching coarsening and the multilevel V-cycle.

   [coarsen] allocates its result plus O(cells + nets) scratch: the
   matching loop is plain [for] loops over int and float arrays (no
   closures, tuples or options per candidate), and clusters are built
   from a count-then-fill member array and one net-indexed stamp array
   instead of per-cluster tables. *)

(* Per-axis weight guard for a candidate merge. Cluster demand vectors are
   the per-axis sums of their members' vectors (zero-extended), so checking
   every axis of [cap] — not just the scalar CLB weight — keeps coarse
   clusters packable on vector devices: a BRAM-heavy pair whose CLB sum is
   tiny must still refuse to merge past the BRAM cap. *)
let weight_ok cap (d0 : int array) (d1 : int array) =
  let ok = ref true in
  for a = 0 to Array.length cap - 1 do
    let x0 = if a < Array.length d0 then d0.(a) else 0 in
    let x1 = if a < Array.length d1 then d1.(a) else 0 in
    if x0 + x1 > cap.(a) then ok := false
  done;
  !ok

(* A driven net internalises in the pair [c0, c1] when it is not external
   and every pin sits inside the pair (such a net touches at most two
   distinct cells, so the check is O(1)). *)
let pair_internal (h : Hypergraph.t) c0 c1 net =
  (not h.Hypergraph.net_external.(net))
  &&
  let cells = h.Hypergraph.net_cells.(net) in
  let len = Array.length cells in
  len <= 2
  && (len < 1 || cells.(0) = c0 || cells.(0) = c1)
  && (len < 2 || cells.(1) = c0 || cells.(1) = c1)

(* Exact pin counts of a candidate merge: what the merged cluster's
   surface will be. Driven nets internal to the pair drop out; inputs are
   the distinct union of both cells' input nets minus anything driven
   inside the pair. Far tighter than the per-cell pin-count sums when the
   pair shares support or feeds itself — exactly the high-affinity case
   heavy-edge matching favours. Without this, coarsening of
   region-structured circuits stalls an order of magnitude above the
   target: the sums hit the bit-mask width while the true surfaces are
   still small. Uses two stamps from [seen]: [stamp] marks driven nets,
   [stamp + 1] counted inputs. True when both counts fit the bit-mask
   width. *)
let merged_pins_fit (h : Hypergraph.t) seen stamp c0 c1 =
  let outs = ref 0 in
  for side = 0 to 1 do
    let nets = (Hypergraph.cell h (if side = 0 then c0 else c1)).outputs in
    for p = 0 to Array.length nets - 1 do
      let net = nets.(p) in
      if seen.(net) <> stamp then begin
        seen.(net) <- stamp;
        if not (pair_internal h c0 c1 net) then incr outs
      end
    done
  done;
  let ins = ref 0 in
  let in_stamp = stamp + 1 in
  for side = 0 to 1 do
    let nets = (Hypergraph.cell h (if side = 0 then c0 else c1)).inputs in
    for p = 0 to Array.length nets - 1 do
      let net = nets.(p) in
      if seen.(net) <> stamp && seen.(net) <> in_stamp then begin
        seen.(net) <- in_stamp;
        incr ins
      end
    done
  done;
  !ins <= Bitvec.max_width && !outs <= Bitvec.max_width

(* Distinct-net count of a candidate merge: |nets(c0) ∪ nets(c1)|. Both
   full-net arrays are memoised on the cells, so this is O(degree). *)
let merged_net_count (h : Hypergraph.t) seen stamp c0 c1 =
  let count = ref 0 in
  for side = 0 to 1 do
    let nets =
      Hypergraph.cell_nets (Hypergraph.cell h (if side = 0 then c0 else c1))
    in
    for p = 0 to Array.length nets - 1 do
      let net = nets.(p) in
      if seen.(net) <> stamp then begin
        seen.(net) <- stamp;
        incr count
      end
    done
  done;
  !count

(* Nets falling entirely inside one cluster vanish from the coarse graph:
   they can never be cut again, and dropping them keeps cluster pin
   counts (and F-M gain evaluation) small. *)
let internal (h : Hypergraph.t) cluster_of net =
  (not h.Hypergraph.net_external.(net))
  &&
  let cells = h.Hypergraph.net_cells.(net) in
  let len = Array.length cells in
  len = 0
  ||
  let k = cluster_of.(cells.(0)) in
  let i = ref 1 in
  while !i < len && cluster_of.(cells.(!i)) = k do
    incr i
  done;
  !i = len

(* The coarse id of fine net [net], numbering nets densely on first use. *)
let map_net net_map next net =
  if net_map.(net) < 0 then begin
    net_map.(net) <- !next;
    incr next
  end;
  net_map.(net)

(* Cluster [k], whose members are [members.(lo .. hi-1)] in ascending cell
   order. [mark] is the net-indexed stamp array: [2k] means driven in [k],
   [2k + 1] counted as an input of [k]. Nets are numbered through
   [map_net] in the order outputs, fallback net, inputs. *)
let cluster_spec (h : Hypergraph.t) cluster_of members mark net_map next k lo
    hi =
  let driven = 2 * k and counted = (2 * k) + 1 in
  let first_driven = ref (-1) and n_out = ref 0 in
  for i = lo to hi - 1 do
    let nets = (Hypergraph.cell h members.(i)).outputs in
    for p = 0 to Array.length nets - 1 do
      let net = nets.(p) in
      mark.(net) <- driven;
      if !first_driven < 0 then first_driven := net;
      if not (internal h cluster_of net) then incr n_out
    done
  done;
  let outputs =
    if !n_out > 0 then begin
      let outputs = Array.make !n_out 0 in
      let j = ref 0 in
      for i = lo to hi - 1 do
        let nets = (Hypergraph.cell h members.(i)).outputs in
        for p = 0 to Array.length nets - 1 do
          let net = nets.(p) in
          if not (internal h cluster_of net) then begin
            outputs.(!j) <- map_net net_map next net;
            incr j
          end
        done
      done;
      outputs
    end
    else if !first_driven >= 0 then
      (* Every net the cluster drives is internal, but a well-formed cell
         needs one output pin: the first driven net, in member and pin
         order, the fallback net. It touches only this cluster, so
         exposing it cannot create cut. *)
      [| map_net net_map next !first_driven |]
    else [||]
  in
  let n_in = ref 0 in
  for i = lo to hi - 1 do
    let nets = (Hypergraph.cell h members.(i)).inputs in
    for p = 0 to Array.length nets - 1 do
      let net = nets.(p) in
      if mark.(net) <> driven && mark.(net) <> counted then begin
        mark.(net) <- counted;
        incr n_in
      end
    done
  done;
  let inputs = Array.make !n_in 0 in
  let j = ref 0 in
  for i = lo to hi - 1 do
    let nets = (Hypergraph.cell h members.(i)).inputs in
    for p = 0 to Array.length nets - 1 do
      let net = nets.(p) in
      (* Each counted input is filled once, at its first pin; re-marking
         it [driven] retires it for the rest of this cluster. *)
      if mark.(net) = counted then begin
        mark.(net) <- driven;
        inputs.(!j) <- map_net net_map next net;
        incr j
      end
    done
  done;
  let area = ref 0 in
  let demand = Array.make Hypergraph.demand_arity 0 in
  for i = lo to hi - 1 do
    let c = Hypergraph.cell h members.(i) in
    area := !area + c.Hypergraph.area;
    let d = c.Hypergraph.demand in
    for a = 0 to Array.length d - 1 do
      demand.(a) <- demand.(a) + d.(a)
    done
  done;
  {
    Hypergraph.s_name = "cl" ^ Int.to_string k;
    s_area = !area;
    s_demand = demand;
    s_inputs = inputs;
    s_outputs = outputs;
    (* Clusters are opaque: every output depends on every input. *)
    s_supports = Array.make (Array.length outputs) (Bitvec.full !n_in);
  }

(* Heavy-edge matching: [cluster_of] sends each cell to its cluster,
   numbered in matching order, and [clusters] counts them. [seen] is the
   net-indexed scratch of the merge guards, handed on to [contract]. *)
type matching = { cluster_of : int array; clusters : int; seen : int array }

let match_cells ?max_weight ?max_nets ~rng (h : Hypergraph.t) =
  let n = Hypergraph.num_cells h in
  let num_nets = h.Hypergraph.num_nets in
  let net_cells = h.Hypergraph.net_cells in
  (* Scratch for the exact merge guards, stamped per query so it never
     needs clearing. *)
  let seen = Array.make num_nets (-1) in
  let stamp = ref 0 in
  (* Connectivity scores between cells sharing nets: the classic
     1/(pins-1) weighting so huge nets contribute little. Scratch
     arrays instead of a per-cell hash table — scoring runs once per
     cell per level and is the coarsening hot loop at 100k cells. *)
  let score_arr = Array.make n 0.0 in
  let touched = Array.make n (-1) in
  (* The incumbent's score, in a float array so that improving it does
     not box. *)
  let best_w = [| 0.0 |] in
  let cluster_of = Array.make n (-1) in
  let order = Array.init n Fun.id in
  Netlist.Rng.shuffle rng order;
  let next_cluster = ref 0 in
  for i = 0 to n - 1 do
    let cell = order.(i) in
    if cluster_of.(cell) < 0 then begin
      let c0 = Hypergraph.cell h cell in
      let nets0 = Hypergraph.cell_nets c0 in
      let touched_len = ref 0 in
      for j = 0 to Array.length nets0 - 1 do
        let others = net_cells.(nets0.(j)) in
        let pins = Array.length others in
        if pins > 1 then begin
          let w = 1.0 /. float_of_int (pins - 1) in
          for p = 0 to pins - 1 do
            let o = others.(p) in
            if o <> cell then begin
              if score_arr.(o) = 0.0 then begin
                touched.(!touched_len) <- o;
                incr touched_len
              end;
              score_arr.(o) <- score_arr.(o) +. w
            end
          done
        end
      done;
      let in0 = Array.length c0.Hypergraph.inputs in
      let out0 = Array.length c0.Hypergraph.outputs in
      let deg0 = Array.length nets0 in
      let best = ref (-1) in
      for t = 0 to !touched_len - 1 do
        let other = touched.(t) in
        let w = score_arr.(other) in
        (* The score comparison runs first: guards are only evaluated on
           candidates that would displace the incumbent, which turns the
           O(degree) net-union count from per-candidate into
           per-improvement. The winner is the highest-scoring candidate
           passing every guard; equal scores keep the earliest candidate
           in discovery order. *)
        if (!best < 0 || w > best_w.(0)) && cluster_of.(other) < 0 then begin
          let c1 = Hypergraph.cell h other in
          (* Merged clusters must stay within the bit-mask pin budget.
             The pin-count sums are a cheap sufficient check; when they
             overflow the exact distinct unions decide (shared support
             and internally-driven inputs both shrink the true surface
             well below the sums). *)
          if
            (in0 + Array.length c1.Hypergraph.inputs <= Bitvec.max_width
             && out0 + Array.length c1.Hypergraph.outputs <= Bitvec.max_width
            || (stamp := !stamp + 2;
                merged_pins_fit h seen !stamp cell other))
            && (match max_weight with
               | None -> true
               | Some cap ->
                   weight_ok cap c0.Hypergraph.demand c1.Hypergraph.demand)
            &&
            match max_nets with
            | None -> true
            | Some cap ->
                (* Bounds before the exact count: the union is at least
                   max(deg0, deg1) and at most their sum. *)
                let deg1 = Array.length (Hypergraph.cell_nets c1) in
                deg0 + deg1 <= cap
                || max deg0 deg1 <= cap
                   && ((* advance past both stamps a preceding
                          [merged_pins_fit] may have used *)
                       stamp := !stamp + 2;
                       merged_net_count h seen !stamp cell other <= cap)
          then begin
            best := other;
            best_w.(0) <- w
          end
        end
      done;
      for t = 0 to !touched_len - 1 do
        score_arr.(touched.(t)) <- 0.0
      done;
      let id = !next_cluster in
      incr next_cluster;
      cluster_of.(cell) <- id;
      if !best >= 0 then cluster_of.(!best) <- id
    end
  done;
  { cluster_of; clusters = !next_cluster; seen }

(* The coarse graph of a matching. *)
let contract (h : Hypergraph.t) { cluster_of; clusters = num_clusters; seen } =
  let n = Hypergraph.num_cells h in
  let num_nets = h.Hypergraph.num_nets in
  (* Members of cluster [k] are [members.(first.(k) .. first.(k+1)-1)],
     ascending: a count pass, a prefix sum, then a fill pass that leaves
     [first.(k)] at the end of [k], shifted back afterwards. *)
  let first = Array.make (num_clusters + 1) 0 in
  for c = 0 to n - 1 do
    let k = cluster_of.(c) in
    first.(k + 1) <- first.(k + 1) + 1
  done;
  for k = 1 to num_clusters do
    first.(k) <- first.(k) + first.(k - 1)
  done;
  let members = Array.make n 0 in
  for c = 0 to n - 1 do
    let k = cluster_of.(c) in
    members.(first.(k)) <- c;
    first.(k) <- first.(k) + 1
  done;
  for k = num_clusters downto 1 do
    first.(k) <- first.(k - 1)
  done;
  first.(0) <- 0;
  (* The matching stamps may collide with the cluster stamps 2k / 2k+1. *)
  Array.fill seen 0 num_nets (-1);
  let net_map = Array.make num_nets (-1) in
  let next_net = ref 0 in
  let specs =
    Array.init num_clusters (fun k ->
        cluster_spec h cluster_of members seen net_map next_net k first.(k)
          first.(k + 1))
  in
  (* External nets always survive: every cell pin on them was kept
     (external nets are never internal). Only externals actually touched
     by cells exist in the coarse graph. *)
  let externals = ref [] in
  let net_names = Array.make !next_net "" in
  for net = 0 to num_nets - 1 do
    let id = net_map.(net) in
    if id >= 0 then begin
      net_names.(id) <- h.Hypergraph.net_names.(net);
      if h.Hypergraph.net_external.(net) then externals := id :: !externals
    end
  done;
  let coarse =
    Hypergraph.create ~net_names ~num_nets:!next_net ~external_nets:!externals
      (Array.to_list specs)
  in
  (coarse, cluster_of)

let coarsen ?max_weight ?max_nets ~rng h =
  contract h (match_cells ?max_weight ?max_nets ~rng h)

type hierarchy = {
  coarsest : Hypergraph.t;
  levels : (Hypergraph.t * int array) list;
}

let num_levels hier = List.length hier.levels

let project_labels ~map labels =
  Array.init (Array.length map) (fun c -> labels.(map.(c)))

let hierarchy ?(coarsest = 150) ?max_weight ?max_nets ?(wrap = fun _ f -> f ())
    ?(should_stop = fun () -> false) ~rng h =
  (* [levels] accumulates coarsest-side-first: the head pair's map sends
     its (fine) graph's cells into the coarsest graph's clusters, and the
     last pair's graph is the original [h] — exactly the order an
     uncoarsening walk consumes. *)
  let rec build levels h_cur depth =
    if
      Hypergraph.num_cells h_cur <= coarsest
      || depth >= 12 || should_stop ()
    then (levels, h_cur)
    else begin
      let level =
        wrap depth (fun () ->
            let m = match_cells ?max_weight ?max_nets ~rng h_cur in
            (* A matching that keeps 90 % of the cells stalls; it is
               thrown away, so its graph is not built. *)
            if
              float_of_int m.clusters
              >= 0.9 *. float_of_int (Hypergraph.num_cells h_cur)
            then None
            else Some (contract h_cur m))
      in
      match level with
      | None -> (levels, h_cur)
      | Some (coarse, map) -> build ((h_cur, map) :: levels) coarse (depth + 1)
    end
  in
  let levels, coarsest_h = build [] h 0 in
  { coarsest = coarsest_h; levels }
