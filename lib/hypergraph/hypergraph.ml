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

let sort_dedup arr =
  let arr = Array.copy arr in
  Array.sort Int.compare arr;
  let n = Array.length arr in
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

(* The distinct incident nets, each with the input and output pins wired
   to it: what every connected-net question about the cell reads. *)
let with_pin_masks c =
  let nets = sort_dedup (Array.append c.inputs c.outputs) in
  let pins_of wires =
    let masks = Array.make (Array.length nets) Bitvec.empty in
    Array.iteri
      (fun p n ->
        let k = net_index nets n in
        masks.(k) <- Bitvec.add p masks.(k))
      wires;
    masks
  in
  {
    c with
    full_nets = nets;
    full_in_pins = pins_of c.inputs;
    full_out_pins = pins_of c.outputs;
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

let check_cell ~num_nets c =
  let n_in = Array.length c.inputs in
  let bad msg = Error (Printf.sprintf "cell %s: %s" c.name msg) in
  if c.area < 1 then bad "area must be >= 1"
  else if Array.length c.demand < 1 || Array.length c.demand > demand_arity
  then bad "demand must use 1..demand_arity axes"
  else if c.demand.(0) <> c.area then bad "demand.(0) must equal area"
  else if Array.exists (fun x -> x < 0) c.demand then
    bad "demand must be non-negative"
  else if Array.length c.outputs = 0 then bad "cell has no outputs"
  else if Array.length c.supports <> Array.length c.outputs then
    bad "one support mask per output required"
  else if
    Array.exists (fun n -> n < 0 || n >= num_nets) c.inputs
    || Array.exists (fun n -> n < 0 || n >= num_nets) c.outputs
  then bad "net id out of range"
  else if n_in > Bitvec.max_width then bad "too many input pins"
  else if
    Array.exists (fun s -> not (Bitvec.subset s (Bitvec.full n_in))) c.supports
  then bad "support refers to a missing input pin"
  else if
    n_in > 0
    && not
         (Bitvec.equal
            (Array.fold_left Bitvec.union Bitvec.empty c.supports)
            (Bitvec.full n_in))
  then bad "some input pin supports no output"
  else if n_in = 0 && Array.exists (fun s -> not (Bitvec.is_empty s)) c.supports
  then bad "support of an input-less cell must be empty"
  else Ok ()

let validate h =
  let num = Array.length h.cells in
  let rec check_cells i =
    if i >= num then Ok ()
    else if h.cells.(i).id <> i then Error "cell id mismatch"
    else
      match check_cell ~num_nets:h.num_nets h.cells.(i) with
      | Error _ as e -> e
      | Ok () -> check_cells (i + 1)
  in
  match check_cells 0 with
  | Error _ as e -> e
  | Ok () -> (
      (* Exactly one driver per net among the cells, unless external. *)
      let drivers = Array.make h.num_nets 0 in
      Array.iter
        (fun c -> Array.iter (fun n -> drivers.(n) <- drivers.(n) + 1) c.outputs)
        h.cells;
      let rec check_nets n =
        if n >= h.num_nets then Ok ()
        else if drivers.(n) > 1 then
          Error (Printf.sprintf "net %d has %d drivers" n drivers.(n))
        else if drivers.(n) = 0 && not h.net_external.(n) then
          Error (Printf.sprintf "net %d has no driver and is not external" n)
        else check_nets (n + 1)
      in
      check_nets 0)

let create ?net_names ~num_nets ~external_nets specs =
  let cells =
    List.mapi
      (fun id s ->
        with_pin_masks
          {
            id;
            name = s.s_name;
            area = s.s_area;
            demand =
              (if Array.length s.s_demand = 0 then [| s.s_area |]
               else Array.copy s.s_demand);
            inputs = s.s_inputs;
            outputs = s.s_outputs;
            supports = s.s_supports;
            full_nets = [||];
            full_in_pins = [||];
            full_out_pins = [||];
          })
      specs
    |> Array.of_list
  in
  let net_external = Array.make num_nets false in
  List.iter
    (fun n ->
      if n < 0 || n >= num_nets then
        invalid_arg "Hypergraph.create: external net id out of range";
      net_external.(n) <- true)
    external_nets;
  let net_cell_lists = Array.make num_nets [] in
  Array.iter
    (fun c ->
      Array.iter
        (fun n ->
          if n >= 0 && n < num_nets then
            match net_cell_lists.(n) with
            | x :: _ when x = c.id -> ()
            | l -> net_cell_lists.(n) <- c.id :: l)
        (cell_nets c))
    cells;
  let net_names =
    match net_names with
    | Some a ->
        if Array.length a <> num_nets then
          invalid_arg "Hypergraph.create: net_names length mismatch";
        a
    | None -> Array.init num_nets (fun n -> Printf.sprintf "net%d" n)
  in
  let h =
    {
      cells;
      num_nets;
      net_cells = Array.map (fun l -> Array.of_list (List.rev l)) net_cell_lists;
      net_external;
      net_names;
    }
  in
  match validate h with
  | Ok () -> h
  | Error msg -> invalid_arg ("Hypergraph.create: " ^ msg)

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
  Array.iter
    (fun cells ->
      if Array.length cells > 1 then begin
        let l0 = labels.(cells.(0)) in
        if Array.exists (fun c -> labels.(c) <> l0) cells then
          Array.iter (fun c -> flags.(c) <- true) cells
      end)
    h.net_cells;
  flags

let max_cell_degree h =
  Array.fold_left (fun acc c -> max acc (Array.length (cell_nets c))) 0 h.cells

let pins h =
  Array.fold_left
    (fun acc c -> acc + Array.length c.inputs + Array.length c.outputs)
    0 h.cells

(* Restrict to copies: each (cell id, out_mask) becomes a new cell carrying
   exactly those outputs and the inputs they depend on. A net becomes
   external when it was external before or when some incidence of the
   original hypergraph is not covered by the kept copies. *)
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
  (* Net renumbering: nets touched by kept copies survive. *)
  let net_map = Array.make h.num_nets (-1) in
  let new_nets = Netlist.Vec.create () in
  let map_net n =
    if net_map.(n) < 0 then
      net_map.(n) <- Netlist.Vec.push new_nets n;
    net_map.(n)
  in
  let specs = Array.of_list specs in
  Array.iter
    (fun (id, m) ->
      Array.iter
        (fun n -> ignore (map_net n))
        (connected_nets h.cells.(id) ~out_mask:m))
    specs;
  let num_new_nets = Netlist.Vec.length new_nets in
  (* External detection: walk original incidences. *)
  let external_flags = Array.make num_new_nets false in
  for n = 0 to h.num_nets - 1 do
    if net_map.(n) >= 0 then begin
      let ext = ref h.net_external.(n) in
      Array.iter
        (fun cid ->
          let cell = h.cells.(cid) in
          let kept = kept_mask.(cid) in
          let touches m =
            (not (Bitvec.is_empty m))
            && Array.exists (fun n' -> n' = n) (connected_nets cell ~out_mask:m)
          in
          (* The cell touches n (it is in net_cells). The net leaks outside
             when the kept copy does not cover that incidence, or when the
             dropped copy (the complement of the kept outputs, e.g. the
             other half of a replicated cell) also touches it. *)
          let dropped =
            Bitvec.diff (Bitvec.full (Array.length cell.outputs)) kept
          in
          if (not (touches kept)) || touches dropped then ext := true)
        h.net_cells.(n);
      external_flags.(net_map.(n)) <- !ext
    end
  done;
  let new_specs =
    Array.to_list specs
    |> List.map (fun (id, m) ->
           let c = h.cells.(id) in
           let in_pins = Bitvec.to_list (input_support c m) in
           let new_index = Hashtbl.create 8 in
           List.iteri (fun k p -> Hashtbl.add new_index p k) in_pins;
           let s_inputs =
             Array.of_list (List.map (fun p -> net_map.(c.inputs.(p))) in_pins)
           in
           let out_pins = Bitvec.to_list m in
           let s_outputs =
             Array.of_list (List.map (fun o -> net_map.(c.outputs.(o))) out_pins)
           in
           let s_supports =
             Array.of_list
               (List.map
                  (fun o ->
                    Bitvec.fold
                      (fun p acc -> Bitvec.add (Hashtbl.find new_index p) acc)
                      c.supports.(o) Bitvec.empty)
                  out_pins)
           in
           { s_name = c.name; s_area = c.area; s_demand = c.demand;
             s_inputs; s_outputs; s_supports })
  in
  let net_names =
    Array.init num_new_nets (fun k -> h.net_names.(Netlist.Vec.get new_nets k))
  in
  let externals = ref [] in
  Array.iteri (fun k e -> if e then externals := k :: !externals) external_flags;
  let h' =
    create ~net_names ~num_nets:num_new_nets ~external_nets:!externals new_specs
  in
  (h', specs)

let induce h ~keep =
  if Array.length keep <> num_cells h then
    invalid_arg "Hypergraph.induce: keep length mismatch";
  let specs = ref [] in
  for id = num_cells h - 1 downto 0 do
    if keep.(id) then
      specs :=
        (id, Bitvec.full (Array.length h.cells.(id).outputs)) :: !specs
  done;
  let h', spec_arr = induce_copies h !specs in
  (h', Array.map fst spec_arr)

let pp_summary fmt h =
  let n_ext =
    Array.fold_left (fun acc e -> if e then acc + 1 else acc) 0 h.net_external
  in
  Format.fprintf fmt "%d cells (area %d), %d nets (%d external), %d pins"
    (num_cells h) (total_area h) h.num_nets n_ext (pins h)
