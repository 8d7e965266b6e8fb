let demand_arity = 4

type cell = {
  id : int;
  name : string;
  area : int;
  demand : int array;
  inputs : int array;
  outputs : int array;
  supports : Bitvec.t array;
  full_nets : int array;
}

type t = {
  cells : cell array;
  num_nets : int;
  net_cells : int array array;
  net_external : bool array;
  net_names : string array;
}

type cell_spec = {
  s_name : string;
  s_area : int;
  s_demand : int array;
  s_inputs : int array;
  s_outputs : int array;
  s_supports : Bitvec.t array;
}

(* The distinct nets of [inputs] and [outputs], ascending, as an exactly
   sized fresh array. They are sorted and deduplicated in [buf], a
   scratch one [create] call shares across its cells and grows as
   needed, by an insertion sort, since a cell has a few dozen pins at
   most: the result is the only allocation. *)
let distinct_nets buf inputs outputs =
  let n_in = Array.length inputs in
  let n = n_in + Array.length outputs in
  if Array.length !buf < n then
    buf := Array.make (max n (2 * Array.length !buf)) 0;
  let arr = !buf in
  Array.blit inputs 0 arr 0 n_in;
  Array.blit outputs 0 arr n_in (n - n_in);
  for i = 1 to n - 1 do
    let x = arr.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && arr.(!j) > x do
      arr.(!j + 1) <- arr.(!j);
      decr j
    done;
    arr.(!j + 1) <- x
  done;
  let len = ref (min n 1) in
  for i = 1 to n - 1 do
    if arr.(i) <> arr.(!len - 1) then begin
      arr.(!len) <- arr.(i);
      incr len
    end
  done;
  Array.sub arr 0 !len

(* Every cell is built here, with its distinct incident nets: what every
   connected-net question about the cell reads. *)
let make_cell ~buf ~id ~name ~area ~demand ~inputs ~outputs ~supports =
  {
    id;
    name;
    area;
    demand;
    inputs;
    outputs;
    supports;
    full_nets = distinct_nets buf inputs outputs;
  }

let cell_nets c = c.full_nets

let input_support c out_mask =
  let acc = ref Bitvec.empty and rest = ref out_mask and o = ref 0 in
  while !rest <> 0 do
    if !rest land 1 <> 0 then acc := Bitvec.union !acc c.supports.(!o);
    rest := !rest lsr 1;
    incr o
  done;
  !acc

(* Whether a pin [p' >= p] of [wires] that [mask] holds is wired to net
   [n]. *)
let rec wired wires mask n p =
  p < Array.length wires
  && ((Bitvec.mem p mask && wires.(p) = n) || wired wires mask n (p + 1))

(* Whether a copy of [c] carrying outputs [out_mask] and connecting input
   pins [in_mask] has a pin on net [n]. *)
let copy_on c ~out_mask ~in_mask n =
  wired c.outputs out_mask n 0 || wired c.inputs in_mask n 0

(* A partial copy's nets, recomputed from its pins: the nets of
   [full_nets] it touches, as a fresh sorted array. *)
let connected_nets c ~out_mask =
  if Bitvec.is_empty out_mask then [||]
  else if Bitvec.equal out_mask (Bitvec.full (Array.length c.outputs)) then
    c.full_nets
  else begin
    let in_mask = input_support c out_mask in
    let nets = c.full_nets in
    let count = ref 0 in
    for k = 0 to Array.length nets - 1 do
      if copy_on c ~out_mask ~in_mask nets.(k) then incr count
    done;
    let out = Array.make !count 0 in
    let j = ref 0 in
    for k = 0 to Array.length nets - 1 do
      if copy_on c ~out_mask ~in_mask nets.(k) then begin
        out.(!j) <- nets.(k);
        incr j
      end
    done;
    out
  end

(* Cell checks as allocation-free loops, so validating a rebuilt graph
   costs no more than reading it. *)
let rec non_negative (d : int array) i =
  i >= Array.length d || (d.(i) >= 0 && non_negative d (i + 1))

let rec nets_in_range ~num_nets (nets : int array) i =
  i >= Array.length nets
  || nets.(i) >= 0
     && nets.(i) < num_nets
     && nets_in_range ~num_nets nets (i + 1)

let rec supports_within supports bound i =
  i >= Array.length supports
  || Bitvec.subset supports.(i) bound
     && supports_within supports bound (i + 1)

let bad c msg = Error (Printf.sprintf "cell %s: %s" c.name msg)

let check_cell ~num_nets c =
  let n_in = Array.length c.inputs in
  if c.area < 1 then bad c "area must be >= 1"
  else if Array.length c.demand < 1 || Array.length c.demand > demand_arity
  then bad c "demand must use 1..demand_arity axes"
  else if c.demand.(0) <> c.area then bad c "demand.(0) must equal area"
  else if not (non_negative c.demand 0) then bad c "demand must be non-negative"
  else if Array.length c.outputs = 0 then bad c "cell has no outputs"
  else if Array.length c.supports <> Array.length c.outputs then
    bad c "one support mask per output required"
  else if
    not
      (nets_in_range ~num_nets c.inputs 0
      && nets_in_range ~num_nets c.outputs 0)
  then bad c "net id out of range"
  else if n_in > Bitvec.max_width then bad c "too many input pins"
  else if not (supports_within c.supports (Bitvec.full n_in) 0) then
    bad c "support refers to a missing input pin"
  else if
    n_in > 0
    && not
         (Bitvec.equal
            (Array.fold_left Bitvec.union Bitvec.empty c.supports)
            (Bitvec.full n_in))
  then bad c "some input pin supports no output"
  else if n_in = 0 && not (supports_within c.supports Bitvec.empty 0) then
    bad c "support of an input-less cell must be empty"
  else Ok ()

let rec check_cells h i =
  if i >= Array.length h.cells then Ok ()
  else if h.cells.(i).id <> i then Error "cell id mismatch"
  else
    match check_cell ~num_nets:h.num_nets h.cells.(i) with
    | Error _ as e -> e
    | Ok () -> check_cells h (i + 1)

(* Exactly one driver per net among the cells, unless external. *)
let rec check_nets h drivers n =
  if n >= h.num_nets then Ok ()
  else if drivers.(n) > 1 then
    Error (Printf.sprintf "net %d has %d drivers" n drivers.(n))
  else if drivers.(n) = 0 && not h.net_external.(n) then
    Error (Printf.sprintf "net %d has no driver and is not external" n)
  else check_nets h drivers (n + 1)

let validate h =
  match check_cells h 0 with
  | Error _ as e -> e
  | Ok () ->
      let drivers = Array.make h.num_nets 0 in
      for i = 0 to Array.length h.cells - 1 do
        let outs = h.cells.(i).outputs in
        for o = 0 to Array.length outs - 1 do
          drivers.(outs.(o)) <- drivers.(outs.(o)) + 1
        done
      done;
      check_nets h drivers 0

(* The constructor behind [create]: the cells are built and
   [net_external]/[net_names] sized [num_nets]. [net_cells]
   comes from a count pass and a fill pass over the cells' distinct nets,
   so each net's cells ascend; ids out of range are skipped here and
   reported by [validate]. *)
let assemble ~num_nets ~net_external ~net_names cells =
  let fill = Array.make num_nets 0 in
  for i = 0 to Array.length cells - 1 do
    let nets = cells.(i).full_nets in
    for k = 0 to Array.length nets - 1 do
      let n = nets.(k) in
      if n >= 0 && n < num_nets then fill.(n) <- fill.(n) + 1
    done
  done;
  let net_cells = Array.map (fun count -> Array.make count 0) fill in
  Array.fill fill 0 num_nets 0;
  for i = 0 to Array.length cells - 1 do
    let c = cells.(i) in
    let nets = c.full_nets in
    for k = 0 to Array.length nets - 1 do
      let n = nets.(k) in
      if n >= 0 && n < num_nets then begin
        net_cells.(n).(fill.(n)) <- c.id;
        fill.(n) <- fill.(n) + 1
      end
    done
  done;
  let h = { cells; num_nets; net_cells; net_external; net_names } in
  match validate h with
  | Ok () -> h
  | Error msg -> invalid_arg ("Hypergraph.create: " ^ msg)

let cell_of_spec buf id s =
  make_cell ~buf ~id ~name:s.s_name ~area:s.s_area
    ~demand:
      (if Array.length s.s_demand = 0 then [| s.s_area |]
       else Array.copy s.s_demand)
    ~inputs:s.s_inputs ~outputs:s.s_outputs ~supports:s.s_supports

let create ?net_names ~num_nets ~external_nets specs =
  let cells = Array.mapi (cell_of_spec (ref [||])) (Array.of_list specs) in
  let net_external = Array.make num_nets false in
  List.iter
    (fun n ->
      if n < 0 || n >= num_nets then
        invalid_arg "Hypergraph.create: external net id out of range";
      net_external.(n) <- true)
    external_nets;
  let net_names =
    match net_names with
    | Some a ->
        if Array.length a <> num_nets then
          invalid_arg "Hypergraph.create: net_names length mismatch";
        a
    | None -> Array.init num_nets (fun n -> Printf.sprintf "net%d" n)
  in
  assemble ~num_nets ~net_external ~net_names cells

let num_cells h = Array.length h.cells
let cell h i = h.cells.(i)
let total_area h = Array.fold_left (fun acc c -> acc + c.area) 0 h.cells

let total_demand h =
  let acc = Array.make demand_arity 0 in
  Array.iter
    (fun c ->
      let d = c.demand in
      for a = 0 to Array.length d - 1 do
        acc.(a) <- acc.(a) + d.(a)
      done)
    h.cells;
  acc

let boundary h ~labels =
  if Array.length labels <> num_cells h then
    invalid_arg "Hypergraph.boundary: labels do not cover the cells";
  let flags = Array.make (num_cells h) false in
  (* Plain loops: no closure per net, so the flag array is the only
     allocation. *)
  for n = 0 to Array.length h.net_cells - 1 do
    let cells = h.net_cells.(n) in
    let len = Array.length cells in
    if len > 1 then begin
      let l0 = labels.(cells.(0)) in
      let i = ref 1 in
      while !i < len && labels.(cells.(!i)) = l0 do
        incr i
      done;
      if !i < len then
        for j = 0 to len - 1 do
          flags.(cells.(j)) <- true
        done
    end
  done;
  flags

let max_cell_degree h =
  Array.fold_left (fun acc c -> max acc (Array.length (cell_nets c))) 0 h.cells

let pins h =
  Array.fold_left
    (fun acc c -> acc + Array.length c.inputs + Array.length c.outputs)
    0 h.cells


type hypergraph = t

module Flat = struct
  type t = {
    frozen : bool;
    mutable num_cells : int;
    mutable num_nets : int;
    mutable max_degree : int;
    mutable cell_off : int array;
    mutable inc_net : int array;
    mutable inc_in : Bitvec.t array;
    mutable inc_out : Bitvec.t array;
    mutable outputs : int array;
    mutable inputs : int array;
    mutable sup_off : int array;
    mutable supports : Bitvec.t array;
    mutable area : int array;
    mutable demand : int array;
    mutable net_off : int array;
    mutable net_cell : int array;
    mutable net_external : bool array;
    mutable origin_cell : int array;
    mutable origin_mask : Bitvec.t array;
    (* A buffer's staged copies, and the scratch a carve into it indexes
       by the parent's nets and cells. *)
    mutable staged : int;
    mutable spec_cell : int array;
    mutable spec_mask : Bitvec.t array;
    mutable net_map : int array;
    mutable kept : Bitvec.t array;
  }

  (* Index of net [n] among the [len] ascending nets of [nets] from
     [off]; [n] must be present. *)
  let net_index nets off len n =
    let lo = ref off and hi = ref (off + len - 1) in
    while nets.(!lo) <> n do
      let mid = (!lo + !hi) / 2 in
      if nets.(mid) < n then lo := mid + 1 else hi := mid
    done;
    !lo

  let of_hypergraph (h : hypergraph) =
    let n = num_cells h in
    let cell_off = Array.make (n + 1) 0 in
    let sup_off = Array.make (n + 1) 0 in
    for c = 0 to n - 1 do
      let cell = h.cells.(c) in
      cell_off.(c + 1) <- cell_off.(c) + Array.length cell.full_nets;
      sup_off.(c + 1) <- sup_off.(c) + Array.length cell.outputs
    done;
    let incs = cell_off.(n) in
    let inc_net = Array.make incs 0 in
    let inc_in = Array.make incs Bitvec.empty in
    let inc_out = Array.make incs Bitvec.empty in
    let supports = Array.make sup_off.(n) Bitvec.empty in
    let demand = Array.make (n * demand_arity) 0 in
    for c = 0 to n - 1 do
      let cell = h.cells.(c) in
      let off = cell_off.(c) and len = Array.length cell.full_nets in
      Array.blit cell.full_nets 0 inc_net off len;
      Array.iteri
        (fun p net ->
          let k = net_index inc_net off len net in
          inc_in.(k) <- Bitvec.add p inc_in.(k))
        cell.inputs;
      Array.iteri
        (fun o net ->
          let k = net_index inc_net off len net in
          inc_out.(k) <- Bitvec.add o inc_out.(k))
        cell.outputs;
      Array.blit cell.supports 0 supports sup_off.(c)
        (Array.length cell.supports);
      Array.blit cell.demand 0 demand (c * demand_arity)
        (Array.length cell.demand)
    done;
    let nets = h.num_nets in
    let net_off = Array.make (nets + 1) 0 in
    for i = 0 to nets - 1 do
      net_off.(i + 1) <- net_off.(i) + Array.length h.net_cells.(i)
    done;
    let net_cell = Array.make net_off.(nets) 0 in
    for i = 0 to nets - 1 do
      Array.blit h.net_cells.(i) 0 net_cell net_off.(i)
        (Array.length h.net_cells.(i))
    done;
    {
      frozen = true;
      num_cells = n;
      num_nets = nets;
      max_degree = max_cell_degree h;
      cell_off;
      inc_net;
      inc_in;
      inc_out;
      outputs = Array.map (fun (c : cell) -> Array.length c.outputs) h.cells;
      inputs = Array.map (fun (c : cell) -> Array.length c.inputs) h.cells;
      sup_off;
      supports;
      area = Array.map (fun (c : cell) -> c.area) h.cells;
      demand;
      net_off;
      net_cell;
      net_external = h.net_external;
      origin_cell = Array.init n Fun.id;
      origin_mask =
        Array.map
          (fun (c : cell) -> Bitvec.full (Array.length c.outputs))
          h.cells;
      staged = 0;
      spec_cell = [||];
      spec_mask = [||];
      net_map = [||];
      kept = [||];
    }

  let buffer () =
    {
      frozen = false;
      num_cells = 0;
      num_nets = 0;
      max_degree = 0;
      cell_off = [| 0 |];
      inc_net = [||];
      inc_in = [||];
      inc_out = [||];
      outputs = [||];
      inputs = [||];
      sup_off = [| 0 |];
      supports = [||];
      area = [||];
      demand = [||];
      net_off = [| 0 |];
      net_cell = [||];
      net_external = [||];
      origin_cell = [||];
      origin_mask = [||];
      staged = 0;
      spec_cell = [||];
      spec_mask = [||];
      net_map = [||];
      kept = [||];
    }

  let num_cells g = g.num_cells
  let num_nets g = g.num_nets

  let total_area g =
    let acc = ref 0 in
    for c = 0 to g.num_cells - 1 do
      acc := !acc + g.area.(c)
    done;
    !acc

  let total_demand g =
    let acc = Array.make demand_arity 0 in
    for c = 0 to g.num_cells - 1 do
      for a = 0 to demand_arity - 1 do
        acc.(a) <- acc.(a) + g.demand.((c * demand_arity) + a)
      done
    done;
    acc

  let input_support g c m =
    let acc = ref Bitvec.empty and rest = ref m and s = ref g.sup_off.(c) in
    while !rest <> 0 do
      if !rest land 1 <> 0 then acc := Bitvec.union !acc g.supports.(!s);
      rest := !rest lsr 1;
      incr s
    done;
    !acc

  (* An array of at least [len] slots: [a] itself when it is long
     enough, else a fresh one of at least twice its length, so a buffer
     carved into many growing graphs allocates O(log) times. *)
  let grow a len fill =
    if Array.length a >= len then a
    else Array.make (max len (2 * Array.length a)) fill

  (* [grow] keeping the first [keep] slots. *)
  let grow_keep a len keep fill =
    let b = grow a len fill in
    if b != a then Array.blit a 0 b 0 keep;
    b

  let stage b ~cell m =
    if b.frozen then invalid_arg "Hypergraph.Flat.stage: not a buffer";
    let j = b.staged in
    b.spec_cell <- grow_keep b.spec_cell (j + 1) j 0;
    b.spec_mask <- grow_keep b.spec_mask (j + 1) j Bitvec.empty;
    b.spec_cell.(j) <- cell;
    b.spec_mask.(j) <- m;
    b.staged <- j + 1

  let bad msg = invalid_arg ("Hypergraph.Flat.carve: " ^ msg)

  (* Whether a copy carrying outputs [m] and connecting input pins
     [in_mask] touches the net of incidence [k]. *)
  let touches g k m in_mask =
    g.inc_out.(k) land m <> 0 || g.inc_in.(k) land in_mask <> 0

  let copy_touches g c k m =
    m <> 0 && touches g k m (input_support g c m)

  (* Net [net] leaks out of the kept copies when, for some cell
     [g.net_cell.(i)], [lo <= i < hi], the kept copy does not cover the
     incidence, or the dropped copy (the complement of the kept outputs,
     e.g. the other half of a replicated cell) also touches it. *)
  let rec leaks g kept net i hi =
    i < hi
    &&
    let c = g.net_cell.(i) in
    let off = g.cell_off.(c) in
    let k = net_index g.inc_net off (g.cell_off.(c + 1) - off) net in
    let dropped = Bitvec.diff (Bitvec.full g.outputs.(c)) kept.(c) in
    (not (copy_touches g c k kept.(c)))
    || copy_touches g c k dropped
    || leaks g kept net (i + 1) hi

  (* Check the staged specs against [p] and record each kept mask in
     [b.kept], before anything of [b]'s graph is written. *)
  let check_specs p b n =
    b.kept <- grow b.kept p.num_cells Bitvec.empty;
    let kept = b.kept in
    Array.fill kept 0 p.num_cells Bitvec.empty;
    for j = 0 to n - 1 do
      let id = b.spec_cell.(j) and m = b.spec_mask.(j) in
      if id < 0 || id >= p.num_cells then bad "cell id out of range";
      if Bitvec.is_empty m then bad "empty output mask";
      if not (Bitvec.subset m (Bitvec.full p.outputs.(id))) then
        bad "mask out of range";
      if not (Bitvec.is_empty kept.(id)) then bad "duplicate cell";
      kept.(id) <- m
    done

  (* Number the surviving nets of [p] in [b.net_map] in first-touch
     order (copy by copy, each copy's nets ascending); returns the net
     and incidence counts. *)
  let number_nets p b n =
    b.net_map <- grow b.net_map p.num_nets 0;
    let net_map = b.net_map in
    Array.fill net_map 0 p.num_nets (-1);
    let nets = ref 0 and incs = ref 0 in
    for j = 0 to n - 1 do
      let id = b.spec_cell.(j) and m = b.spec_mask.(j) in
      let in_mask = input_support p id m in
      for k = p.cell_off.(id) to p.cell_off.(id + 1) - 1 do
        if touches p k m in_mask then begin
          incr incs;
          let net = p.inc_net.(k) in
          if net_map.(net) < 0 then begin
            net_map.(net) <- !nets;
            incr nets
          end
        end
      done
    done;
    (!nets, !incs)

  (* Copy [j]: spec [(id, m)] of [p], its incidences written from [pos]
     in ascending new net order (an insertion sort: a cell has a few
     dozen nets at most) and its supports from [spos]. A partial copy's
     pins are renumbered densely: its inputs through the input support
     [in_mask], its outputs through [m]. Returns the copy's degree. *)
  let copy_cell p b j ~pos ~spos =
    let id = b.spec_cell.(j) and m = b.spec_mask.(j) in
    let full = Bitvec.equal m (Bitvec.full p.outputs.(id)) in
    let in_mask = input_support p id m in
    let len = ref 0 in
    for k = p.cell_off.(id) to p.cell_off.(id + 1) - 1 do
      if touches p k m in_mask then begin
        let net = b.net_map.(p.inc_net.(k)) in
        let ins =
          if full then p.inc_in.(k)
          else Bitvec.compress in_mask (p.inc_in.(k) land in_mask)
        and outs =
          if full then p.inc_out.(k)
          else Bitvec.compress m (p.inc_out.(k) land m)
        in
        let i = ref (pos + !len) in
        while !i > pos && b.inc_net.(!i - 1) > net do
          b.inc_net.(!i) <- b.inc_net.(!i - 1);
          b.inc_in.(!i) <- b.inc_in.(!i - 1);
          b.inc_out.(!i) <- b.inc_out.(!i - 1);
          decr i
        done;
        b.inc_net.(!i) <- net;
        b.inc_in.(!i) <- ins;
        b.inc_out.(!i) <- outs;
        incr len
      end
    done;
    b.outputs.(j) <- Bitvec.norm m;
    b.inputs.(j) <- Bitvec.norm in_mask;
    let s = ref spos in
    for o = 0 to p.outputs.(id) - 1 do
      if Bitvec.mem o m then begin
        let sup = p.supports.(p.sup_off.(id) + o) in
        b.supports.(!s) <- (if full then sup else Bitvec.compress in_mask sup);
        incr s
      end
    done;
    b.area.(j) <- p.area.(id);
    Array.blit p.demand (id * demand_arity) b.demand (j * demand_arity)
      demand_arity;
    !len

  (* Each net's cells, ascending: a count pass into [net_off.(net + 1)],
     prefix sums, a fill pass in copy order that advances [net_off.(net)]
     as the cursor, and a shift back by one slot. *)
  let fill_net_cells b ~nets ~incs =
    Array.fill b.net_off 0 (nets + 1) 0;
    for i = 0 to incs - 1 do
      let net = b.inc_net.(i) in
      b.net_off.(net + 1) <- b.net_off.(net + 1) + 1
    done;
    for net = 1 to nets do
      b.net_off.(net) <- b.net_off.(net) + b.net_off.(net - 1)
    done;
    for j = 0 to b.num_cells - 1 do
      for i = b.cell_off.(j) to b.cell_off.(j + 1) - 1 do
        let net = b.inc_net.(i) in
        b.net_cell.(b.net_off.(net)) <- j;
        b.net_off.(net) <- b.net_off.(net) + 1
      done
    done;
    for net = nets downto 1 do
      b.net_off.(net) <- b.net_off.(net - 1)
    done;
    b.net_off.(0) <- 0

  let carve p ~into:b =
    if b == p then bad "a graph cannot be carved into its own buffer";
    if b.frozen then bad "not a buffer";
    let n = b.staged in
    b.staged <- 0;
    check_specs p b n;
    let nets, incs = number_nets p b n in
    let sups = ref 0 in
    for j = 0 to n - 1 do
      sups := !sups + Bitvec.norm b.spec_mask.(j)
    done;
    b.cell_off <- grow b.cell_off (n + 1) 0;
    b.sup_off <- grow b.sup_off (n + 1) 0;
    b.outputs <- grow b.outputs n 0;
    b.inputs <- grow b.inputs n 0;
    b.area <- grow b.area n 0;
    b.demand <- grow b.demand (n * demand_arity) 0;
    b.origin_cell <- grow b.origin_cell n 0;
    b.origin_mask <- grow b.origin_mask n Bitvec.empty;
    b.inc_net <- grow b.inc_net incs 0;
    b.inc_in <- grow b.inc_in incs Bitvec.empty;
    b.inc_out <- grow b.inc_out incs Bitvec.empty;
    b.supports <- grow b.supports !sups Bitvec.empty;
    b.net_off <- grow b.net_off (nets + 1) 0;
    b.net_cell <- grow b.net_cell incs 0;
    b.net_external <- grow b.net_external nets false;
    let pos = ref 0 and spos = ref 0 and max_degree = ref 0 in
    for j = 0 to n - 1 do
      b.cell_off.(j) <- !pos;
      b.sup_off.(j) <- !spos;
      let len = copy_cell p b j ~pos:!pos ~spos:!spos in
      pos := !pos + len;
      spos := !spos + Bitvec.norm b.spec_mask.(j);
      if len > !max_degree then max_degree := len
    done;
    b.cell_off.(n) <- !pos;
    b.sup_off.(n) <- !spos;
    b.num_cells <- n;
    b.num_nets <- nets;
    b.max_degree <- !max_degree;
    for net = 0 to p.num_nets - 1 do
      let k = b.net_map.(net) in
      if k >= 0 then
        b.net_external.(k) <-
          p.net_external.(net)
          || leaks p b.kept net p.net_off.(net) p.net_off.(net + 1)
    done;
    fill_net_cells b ~nets ~incs;
    for j = 0 to n - 1 do
      let c = b.spec_cell.(j) in
      b.origin_cell.(j) <- p.origin_cell.(c);
      b.origin_mask.(j) <- Bitvec.expand p.origin_mask.(c) b.spec_mask.(j)
    done
end
