open Netlist

module B = Circuit.Builder

(* Balanced binary tree over [ids.(lo .. hi - 1)] using [mk] to create
   nodes; the final combining step uses [root_kind] so that
   NAND(a,b,c,d) becomes NAND(AND(a,b), AND(c,d)), folding the inversion
   into the root. The left half holds the first [(hi - lo) / 2] ids and is
   built first. *)
let rec build_tree mk kind root_kind ids lo hi =
  match hi - lo with
  | 0 -> invalid_arg "Decompose.build_tree: empty"
  | 1 -> ids.(lo)
  | 2 -> mk root_kind [| ids.(lo); ids.(lo + 1) |]
  | n ->
      let mid = lo + (n / 2) in
      let l = build_tree mk kind kind ids lo mid in
      let r = build_tree mk kind kind ids mid hi in
      mk root_kind [| l; r |]

(* The positive-tree kind corresponding to each wide gate. *)
let tree_kinds = function
  | Gate.And -> Some Gate.And
  | Gate.Nand -> Some Gate.And
  | Gate.Or -> Some Gate.Or
  | Gate.Nor -> Some Gate.Or
  | Gate.Xor -> Some Gate.Xor
  | Gate.Xnor -> Some Gate.Xor
  | Gate.Input | Gate.Not | Gate.Buf | Gate.Dff | Gate.Const0 | Gate.Const1 ->
      None

(* The node count of [run c]: one node per source node, and a wide gate
   of a tree kind over [n > 2] fanins adds [n - 2] inner tree nodes. *)
let decomposed_size c =
  Array.fold_left
    (fun acc (nd : Circuit.node) ->
      let n = Array.length nd.Circuit.fanins in
      match tree_kinds nd.Circuit.kind with
      | Some _ when n > 2 -> acc + n - 1
      | _ -> acc + 1)
    0 c.Circuit.nodes

let run c =
  let b = B.create ~name:c.Circuit.name ~size:(decomposed_size c) () in
  let num = Circuit.num_nodes c in
  (* A name prefix no source signal starts with, so invented tree-node
     names can never collide with source names emitted later. *)
  let fresh =
    Circuit.fresh_names "$d" (fun f ->
        Array.exists
          (fun (nd : Circuit.node) -> f nd.Circuit.name)
          c.Circuit.nodes)
  in
  let mk kind fanins = B.gate b ~name:(fresh ()) kind fanins in
  let new_id = Array.make num (-1) in
  (* Inputs and flip-flop placeholders first so any gate can read them. *)
  Array.iter
    (fun i -> new_id.(i) <- B.input b (Circuit.node c i).Circuit.name)
    c.Circuit.inputs;
  for i = 0 to num - 1 do
    let nd = Circuit.node c i in
    if Gate.equal nd.Circuit.kind Gate.Dff then
      new_id.(i) <- B.dff_placeholder b nd.Circuit.name
  done;
  let order = Circuit.topological_order c in
  Array.iter
    (fun i ->
      let nd = Circuit.node c i in
      match nd.Circuit.kind with
      | Gate.Input | Gate.Dff -> ()
      | kind ->
          let name = nd.Circuit.name in
          let fanins = nd.Circuit.fanins in
          let n = Array.length fanins in
          let id =
            match tree_kinds kind with
            | _ when n = 1 ->
                (* Degenerate 1-input instance of a wide gate, or NOT/BUF. *)
                let k =
                  match kind with
                  | Gate.Nand | Gate.Nor | Gate.Xnor | Gate.Not -> Gate.Not
                  | Gate.And | Gate.Or | Gate.Xor | Gate.Buf -> Gate.Buf
                  | Gate.Input | Gate.Dff | Gate.Const0 | Gate.Const1 ->
                      assert false
                in
                B.gate b ~name k [| new_id.(fanins.(0)) |]
            | Some _ when n = 2 ->
                B.gate b ~name kind
                  [| new_id.(fanins.(0)); new_id.(fanins.(1)) |]
            | Some tree_kind ->
                (* Inner tree nodes are anonymous; the root keeps the
                   original signal name (readers reference it). *)
                let ids = Array.map (fun f -> new_id.(f)) fanins in
                let l = build_tree mk tree_kind tree_kind ids 0 (n / 2) in
                let r = build_tree mk tree_kind tree_kind ids (n / 2) n in
                B.gate b ~name kind [| l; r |]
            | None ->
                B.gate b ~name kind (Array.map (fun f -> new_id.(f)) fanins)
          in
          new_id.(i) <- id)
    order;
  (* Wire flip-flops and outputs. *)
  for i = 0 to num - 1 do
    let nd = Circuit.node c i in
    if Gate.equal nd.Circuit.kind Gate.Dff then
      B.connect_dff b new_id.(i) new_id.(nd.Circuit.fanins.(0))
  done;
  Array.iter (fun o -> B.mark_output b new_id.(o)) c.Circuit.outputs;
  B.finish b
