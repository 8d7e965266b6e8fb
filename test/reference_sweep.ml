(* [Transform.sweep] as it was before it became a [rebuild] with a
   liveness predicate, kept verbatim as the reference the current one must
   agree with node for node. *)
open Netlist
module B = Circuit.Builder

let sweep c =
  let num = Circuit.num_nodes c in
  let live = Array.make num false in
  let rec mark i =
    if not live.(i) then begin
      live.(i) <- true;
      Array.iter mark (Circuit.node c i).Circuit.fanins
    end
  in
  Array.iter mark c.Circuit.outputs;
  (* Primary inputs always survive (the chip interface is part of the
     specification even when a pin is unused). *)
  let b = B.create ~name:c.Circuit.name () in
  let new_id = Array.make num (-1) in
  Array.iter
    (fun i -> new_id.(i) <- B.input b (Circuit.node c i).Circuit.name)
    c.Circuit.inputs;
  for i = 0 to num - 1 do
    let nd = Circuit.node c i in
    if live.(i) && Gate.equal nd.Circuit.kind Gate.Dff then
      new_id.(i) <- B.dff_placeholder b nd.Circuit.name
  done;
  let order = Circuit.topological_order c in
  Array.iter
    (fun i ->
      let nd = Circuit.node c i in
      match nd.Circuit.kind with
      | Gate.Input | Gate.Dff -> ()
      | kind ->
          if live.(i) then
            new_id.(i) <-
              B.gate b ~name:nd.Circuit.name kind
                (Array.map (fun f -> new_id.(f)) nd.Circuit.fanins))
    order;
  for i = 0 to num - 1 do
    let nd = Circuit.node c i in
    if live.(i) && Gate.equal nd.Circuit.kind Gate.Dff then
      B.connect_dff b new_id.(i) new_id.(nd.Circuit.fanins.(0))
  done;
  Array.iter (fun o -> B.mark_output b new_id.(o)) c.Circuit.outputs;
  B.finish b
