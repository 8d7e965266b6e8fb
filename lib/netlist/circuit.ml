type node = {
  id : int;
  name : string;
  kind : Gate.kind;
  fanins : int array;
}

type t = {
  nodes : node array;
  fanouts : int array array;
  inputs : int array;
  outputs : int array;
  name : string;
  topo_order : int array;
}

(* Shared by the builder and by [validate]. *)
let check_node ~num_nodes n =
  if not (Gate.arity_ok n.kind (Array.length n.fanins)) then
    Error (Printf.sprintf "node %s: kind %s cannot have %d fanins" n.name
             (Gate.to_string n.kind) (Array.length n.fanins))
  else
    let p = ref 0 in
    while
      !p < Array.length n.fanins && n.fanins.(!p) >= 0
      && n.fanins.(!p) < num_nodes
    do
      incr p
    done;
    if !p < Array.length n.fanins then
      Error (Printf.sprintf "node %s: fanin id out of range" n.name)
    else Ok ()

let is_source nd =
  match nd.kind with
  | Gate.Input | Gate.Dff | Gate.Const0 | Gate.Const1 -> true
  | _ -> false

(* Readers of each node in ascending id order, a reader that reads it
   twice listed twice: a count pass, then a fill pass. *)
let fanouts_of nodes =
  let n = Array.length nodes in
  let counts = Array.make n 0 in
  for i = 0 to n - 1 do
    let fanins = nodes.(i).fanins in
    for p = 0 to Array.length fanins - 1 do
      counts.(fanins.(p)) <- counts.(fanins.(p)) + 1
    done
  done;
  let fanouts = Array.map (fun k -> Array.make k 0) counts in
  Array.fill counts 0 n 0;
  for i = 0 to n - 1 do
    let fanins = nodes.(i).fanins in
    for p = 0 to Array.length fanins - 1 do
      let f = fanins.(p) in
      fanouts.(f).(counts.(f)) <- i;
      counts.(f) <- counts.(f) + 1
    done
  done;
  fanouts

(* Kahn's algorithm over combinational dependencies only: Input, Dff and
   constant nodes are sources; a Dff's fanin is not a dependency of its
   output. Returns [Error names_on_cycle] when a combinational cycle
   exists. A node's successors are its readers in [fanouts] walked from
   the last down, sources skipped: its combinational consumers in
   descending id order, a gate reading it on two pins twice. That is the
   order of the first, list-based definition, which every stored order
   must keep. *)
let topo_or_cycle nodes fanouts =
  let n = Array.length nodes in
  let indeg = Array.make n 0 in
  let order = Array.make n (-1) in
  let tail = ref 0 in
  for i = 0 to n - 1 do
    let nd = nodes.(i) in
    if not (is_source nd) then indeg.(i) <- Array.length nd.fanins;
    if indeg.(i) = 0 then begin
      order.(!tail) <- i;
      incr tail
    end
  done;
  let head = ref 0 in
  while !head < !tail do
    let readers = fanouts.(order.(!head)) in
    incr head;
    for e = Array.length readers - 1 downto 0 do
      let v = readers.(e) in
      if not (is_source nodes.(v)) then begin
        indeg.(v) <- indeg.(v) - 1;
        if indeg.(v) = 0 then begin
          order.(!tail) <- v;
          incr tail
        end
      end
    done
  done;
  if !tail = n then Ok order
  else begin
    let stuck = ref [] in
    Array.iter (fun nd -> if indeg.(nd.id) > 0 then stuck := nd.name :: !stuck) nodes;
    Error !stuck
  end

module Builder = struct
  type t = {
    nodes : node Vec.t;
    by_name : (string, int) Hashtbl.t;
    inputs : int Vec.t;
    outputs : int Vec.t;
    mutable fresh : int;
    circuit_name : string;
    mutable finished : bool;
  }

  let create ?(name = "circuit") ?(size = 64) () =
    {
      nodes =
        Vec.with_capacity size
          { id = -1; name = ""; kind = Gate.Input; fanins = [||] };
      by_name = Hashtbl.create size;
      inputs = Vec.create ();
      outputs = Vec.create ();
      fresh = 0;
      circuit_name = name;
      finished = false;
    }

  (* [finish] hands the node vector's storage to the circuit, so a
     finished builder must not write it again. *)
  let check_open b name =
    if b.finished then
      invalid_arg ("Circuit.Builder." ^ name ^ ": builder already finished")

  let add b name kind fanins =
    check_open b "add";
    if Hashtbl.mem b.by_name name then
      invalid_arg ("Circuit.Builder: duplicate signal name " ^ name);
    let id = Vec.length b.nodes in
    let n = { id; name; kind; fanins } in
    let placeholder_dff = Gate.equal kind Gate.Dff && Array.length fanins = 0 in
    (if not placeholder_dff then
       match check_node ~num_nodes:(id + 1) n with
       | Ok () -> ()
       | Error msg -> invalid_arg ("Circuit.Builder: " ^ msg));
    ignore (Vec.push b.nodes n);
    Hashtbl.add b.by_name name id;
    id

  let input b name =
    let id = add b name Gate.Input [||] in
    ignore (Vec.push b.inputs id);
    id

  let fresh_name b =
    let rec loop () =
      let name = Printf.sprintf "n%d" b.fresh in
      b.fresh <- b.fresh + 1;
      if Hashtbl.mem b.by_name name then loop () else name
    in
    loop ()

  let gate b ~name kind fanins = add b name kind fanins

  let mark_output b id =
    check_open b "mark_output";
    if id < 0 || id >= Vec.length b.nodes then
      invalid_arg "Circuit.Builder.mark_output: no such node";
    if not (Vec.exists (fun o -> o = id) b.outputs) then
      ignore (Vec.push b.outputs id)

  (* Placeholder DFFs carry an empty fanin array until connected. *)
  let dff_placeholder b name = add b name Gate.Dff [||]

  let connect_dff b dff d =
    check_open b "connect_dff";
    if dff < 0 || dff >= Vec.length b.nodes then
      invalid_arg "Circuit.Builder.connect_dff: no such node";
    if d < 0 || d >= Vec.length b.nodes then
      invalid_arg "Circuit.Builder.connect_dff: no such D node";
    let nd = Vec.get b.nodes dff in
    if not (Gate.equal nd.kind Gate.Dff) then
      invalid_arg "Circuit.Builder.connect_dff: not a flip-flop";
    if Array.length nd.fanins <> 0 then
      invalid_arg "Circuit.Builder.connect_dff: already connected";
    Vec.set b.nodes dff { nd with fanins = [| d |] }

  let name_of b id =
    if id < 0 || id >= Vec.length b.nodes then
      invalid_arg "Circuit.Builder.name_of: no such node";
    (Vec.get b.nodes id).name

  let finish b =
    check_open b "finish";
    b.finished <- true;
    let nodes = Vec.take b.nodes in
    Array.iter
      (fun nd ->
        if Gate.equal nd.kind Gate.Dff && Array.length nd.fanins = 0 then
          invalid_arg
            ("Circuit.Builder.finish: flip-flop " ^ nd.name ^ " never connected"))
      nodes;
    let fanouts = fanouts_of nodes in
    let topo_order =
      match topo_or_cycle nodes fanouts with
      | Ok order -> order
      | Error names ->
          invalid_arg
            ("Circuit.Builder.finish: combinational cycle through "
            ^ String.concat ", " (List.filteri (fun i _ -> i < 5) names))
    in
    {
      nodes;
      fanouts;
      inputs = Vec.take b.inputs;
      outputs = Vec.take b.outputs;
      name = b.circuit_name;
      topo_order;
    }
end

let node c i = c.nodes.(i)
let num_nodes c = Array.length c.nodes
let num_gates c =
  Array.fold_left
    (fun acc n -> if Gate.equal n.kind Gate.Input then acc else acc + 1)
    0 c.nodes

let num_dff c =
  Array.fold_left
    (fun acc n -> if Gate.equal n.kind Gate.Dff then acc + 1 else acc)
    0 c.nodes

let find c name =
  (* Circuits are immutable and a lazily built index would complicate the
     type; only tests look circuits up by name, so a scan is acceptable. *)
  let n = Array.length c.nodes in
  let rec loop i =
    if i >= n then None
    else if String.equal c.nodes.(i).name name then Some i
    else loop (i + 1)
  in
  loop 0

let is_output c i = Array.exists (fun o -> o = i) c.outputs

let topological_order c = c.topo_order

let levels c =
  let order = topological_order c in
  let lv = Array.make (num_nodes c) 0 in
  Array.iter
    (fun i ->
      let nd = c.nodes.(i) in
      if not (is_source nd) then
        lv.(i) <-
          1 + Array.fold_left (fun acc f -> max acc lv.(f)) (-1) nd.fanins)
    order;
  lv

let depth c = Array.fold_left max 0 (levels c)

let validate c =
  let num = num_nodes c in
  let rec check_all i =
    if i >= num then Ok ()
    else
      match check_node ~num_nodes:num c.nodes.(i) with
      | Error _ as e -> e
      | Ok () -> if c.nodes.(i).id <> i then Error "node id mismatch" else check_all (i + 1)
  in
  match check_all 0 with
  | Error _ as e -> e
  | Ok () -> (
      if Array.exists (fun o -> o < 0 || o >= num) c.outputs then
        Error "output id out of range"
      else
        match topo_or_cycle c.nodes (fanouts_of c.nodes) with
        | Ok _ -> Ok ()
        | Error names ->
            Error ("combinational cycle through " ^ String.concat ", " names))

let pp_summary fmt c =
  Format.fprintf fmt "%s: %d PI, %d PO, %d gates (%d DFF), depth %d" c.name
    (Array.length c.inputs) (Array.length c.outputs) (num_gates c) (num_dff c)
    (depth c)

let fresh_names base exists =
  let rec search p =
    if exists (String.starts_with ~prefix:p) then search ("$" ^ p) else p
  in
  let prefix = search base in
  let counter = ref 0 in
  fun () ->
    let name = prefix ^ Int.to_string !counter in
    incr counter;
    name
