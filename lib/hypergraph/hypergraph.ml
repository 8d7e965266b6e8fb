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
  full_in_pins : Bitvec.t array;
  full_out_pins : Bitvec.t array;
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

(* Sort a fresh array ascending in place and drop repeats: the array
   itself when nothing repeats, else a copy of its distinct prefix. An
   insertion sort, since a cell has a few dozen pins at most; it
   allocates nothing. *)
let sort_dedup_in_place (arr : int array) =
  let n = Array.length arr in
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
  if !len = n then arr else Array.sub arr 0 !len

(* Index of net [n] in the sorted [nets]; [n] must be present. *)
let net_index nets n =
  let lo = ref 0 and hi = ref (Array.length nets - 1) in
  while nets.(!lo) <> n do
    let mid = (!lo + !hi) / 2 in
    if nets.(mid) < n then lo := mid + 1 else hi := mid
  done;
  !lo

(* [masks.(k)] = the pins of [wires] wired to [nets.(k)]. *)
let pin_masks nets wires =
  let masks = Array.make (Array.length nets) Bitvec.empty in
  for p = 0 to Array.length wires - 1 do
    let k = net_index nets wires.(p) in
    masks.(k) <- Bitvec.add p masks.(k)
  done;
  masks

(* Every cell is built here, with its distinct incident nets, each with
   the input and output pins wired to it: what every connected-net
   question about the cell reads. *)
let make_cell ~id ~name ~area ~demand ~inputs ~outputs ~supports =
  let nets = sort_dedup_in_place (Array.append inputs outputs) in
  {
    id;
    name;
    area;
    demand;
    inputs;
    outputs;
    supports;
    full_nets = nets;
    full_in_pins = pin_masks nets inputs;
    full_out_pins = pin_masks nets outputs;
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

let touches c k ~out_mask ~in_mask =
  (not (Bitvec.is_empty (Bitvec.inter c.full_out_pins.(k) out_mask)))
  || not (Bitvec.is_empty (Bitvec.inter c.full_in_pins.(k) in_mask))

(* The nets of [full_nets] a copy touches, as a fresh sorted array. *)
let touched_nets c ~out_mask ~in_mask =
  let nets = c.full_nets in
  let count = ref 0 in
  for k = 0 to Array.length nets - 1 do
    if touches c k ~out_mask ~in_mask then incr count
  done;
  let out = Array.make !count 0 in
  let j = ref 0 in
  for k = 0 to Array.length nets - 1 do
    if touches c k ~out_mask ~in_mask then begin
      out.(!j) <- nets.(k);
      incr j
    end
  done;
  out

let connected_nets c ~out_mask =
  if Bitvec.is_empty out_mask then [||]
  else if Bitvec.equal out_mask (Bitvec.full (Array.length c.outputs)) then
    c.full_nets
  else touched_nets c ~out_mask ~in_mask:(input_support c out_mask)

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

(* The one constructor behind [create] and [induce_copies]: the cells are
   built and [net_external]/[net_names] sized [num_nets]. [net_cells]
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

let cell_of_spec id s =
  make_cell ~id ~name:s.s_name ~area:s.s_area
    ~demand:
      (if Array.length s.s_demand = 0 then [| s.s_area |]
       else Array.copy s.s_demand)
    ~inputs:s.s_inputs ~outputs:s.s_outputs ~supports:s.s_supports

let create ?net_names ~num_nets ~external_nets specs =
  let cells = Array.mapi cell_of_spec (Array.of_list specs) in
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

(* Whether a copy of [c] carrying outputs [m] touches [c.full_nets.(k)]. *)
let copy_touches c k m =
  (not (Bitvec.is_empty m))
  && touches c k ~out_mask:m ~in_mask:(input_support c m)

(* Net [n] leaks outside the kept copies when, for some cell [cells.(i..)]
   on it, the kept copy does not cover the incidence, or the dropped copy
   (the complement of the kept outputs, e.g. the other half of a
   replicated cell) also touches it. *)
let rec leaks h kept_mask n cells i =
  i < Array.length cells
  &&
  let c = h.cells.(cells.(i)) in
  let kept = kept_mask.(cells.(i)) in
  let k = net_index c.full_nets n in
  let dropped = Bitvec.diff (Bitvec.full (Array.length c.outputs)) kept in
  (not (copy_touches c k kept))
  || copy_touches c k dropped
  || leaks h kept_mask n cells (i + 1)

(* [s] with each input pin [p] renamed [pin_rank.(p)]. *)
let remap_pins pin_rank s =
  let acc = ref Bitvec.empty and rest = ref s and p = ref 0 in
  while !rest <> 0 do
    if !rest land 1 <> 0 then acc := Bitvec.add pin_rank.(!p) !acc;
    rest := !rest lsr 1;
    incr p
  done;
  !acc

(* Cell [id]'s copy carrying outputs [m], as cell [j] of the induced
   graph: the input pins [m]'s supports reference, renumbered densely
   through the [pin_rank] scratch, and every net through [net_map]. *)
let copy_cell h net_map pin_rank j (id, m) =
  let c = h.cells.(id) in
  let in_mask = input_support c m in
  let inputs = Array.make (Bitvec.norm in_mask) 0 in
  let r = ref 0 in
  for p = 0 to Array.length c.inputs - 1 do
    if Bitvec.mem p in_mask then begin
      pin_rank.(p) <- !r;
      inputs.(!r) <- net_map.(c.inputs.(p));
      incr r
    end
  done;
  let n_out = Bitvec.norm m in
  let outputs = Array.make n_out 0 in
  let supports = Array.make n_out Bitvec.empty in
  let r = ref 0 in
  for o = 0 to Array.length c.outputs - 1 do
    if Bitvec.mem o m then begin
      outputs.(!r) <- net_map.(c.outputs.(o));
      supports.(!r) <- remap_pins pin_rank c.supports.(o);
      incr r
    end
  done;
  make_cell ~id:j ~name:c.name ~area:c.area ~demand:(Array.copy c.demand)
    ~inputs ~outputs ~supports

(* Restrict to copies: each (cell id, out_mask) becomes a new cell carrying
   exactly those outputs and the inputs they depend on. A net becomes
   external when it was external before or when some incidence of the
   original hypergraph is not covered by the kept copies. Beyond the
   graph it returns, it allocates one int per cell and per net of [h]
   and a [Bitvec.max_width] pin-rank scratch. *)
let induce_copies h specs =
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
  let specs = Array.of_list specs in
  (* Net renumbering: nets touched by kept copies survive, numbered in
     first-touch order (copy by copy, each copy's nets ascending). *)
  let net_map = Array.make h.num_nets (-1) in
  let num_new_nets = ref 0 in
  for j = 0 to Array.length specs - 1 do
    let id, m = specs.(j) in
    let c = h.cells.(id) in
    let in_mask = input_support c m in
    let nets = c.full_nets in
    for k = 0 to Array.length nets - 1 do
      let n = nets.(k) in
      if net_map.(n) < 0 && touches c k ~out_mask:m ~in_mask then begin
        net_map.(n) <- !num_new_nets;
        incr num_new_nets
      end
    done
  done;
  let num_new_nets = !num_new_nets in
  let net_external = Array.make num_new_nets false in
  let net_names = Array.make num_new_nets "" in
  for n = 0 to h.num_nets - 1 do
    let k = net_map.(n) in
    if k >= 0 then begin
      net_names.(k) <- h.net_names.(n);
      net_external.(k) <-
        h.net_external.(n) || leaks h kept_mask n h.net_cells.(n) 0
    end
  done;
  let pin_rank = Array.make Bitvec.max_width 0 in
  let cells = Array.mapi (copy_cell h net_map pin_rank) specs in
  (assemble ~num_nets:num_new_nets ~net_external ~net_names cells, specs)

