(* [Digest.canonical_circuit] as it was before its body became a call
   to [Netlist.Elaborate.canonical], kept verbatim as the reference. *)
module C = Netlist.Circuit

(* Rebuild the circuit resolving nodes in sorted-name order. Signal names
   are unique (the Builder enforces it), so the resulting numbering is a
   pure function of the circuit's structure — the declaration order of the
   source file is forgotten. Resolution is the same DFS-with-DFF-
   placeholders scheme the netlist parsers use: a flip-flop's D cone may
   read its own Q, so DFFs enter as placeholders and get wired after all
   nodes exist. *)
let canonical_circuit c =
  let names =
    Array.to_list (Array.map (fun (n : C.node) -> n.C.name) c.C.nodes)
    |> List.sort String.compare
  in
  let b = C.Builder.create ~name:c.C.name () in
  let ids = Hashtbl.create (Array.length c.C.nodes) in
  let rec resolve old_id =
    let node = C.node c old_id in
    match Hashtbl.find_opt ids node.C.name with
    | Some id -> id
    | None ->
        let id =
          match node.C.kind with
          | Netlist.Gate.Input -> C.Builder.input b node.C.name
          | Netlist.Gate.Dff -> C.Builder.dff_placeholder b node.C.name
          | kind ->
              let fanins = Array.map resolve node.C.fanins in
              C.Builder.gate b ~name:node.C.name kind fanins
        in
        Hashtbl.replace ids node.C.name id;
        id
  in
  List.iter
    (fun name ->
      match C.find c name with
      | Some old_id -> ignore (resolve old_id)
      | None -> assert false)
    names;
  Array.iter
    (fun (node : C.node) ->
      if Netlist.Gate.equal node.C.kind Netlist.Gate.Dff then
        C.Builder.connect_dff b
          (Hashtbl.find ids node.C.name)
          (resolve node.C.fanins.(0)))
    c.C.nodes;
  Array.to_list c.C.outputs
  |> List.map (fun id -> (C.node c id).C.name)
  |> List.sort String.compare
  |> List.iter (fun name -> C.Builder.mark_output b (Hashtbl.find ids name));
  C.Builder.finish b
