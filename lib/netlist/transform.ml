module B = Circuit.Builder

(* Replacement of an original node in the rebuilt circuit. *)
type repl =
  | Const of bool
  | Id of int  (* node id in the new builder *)

(* Shared rebuild machinery: walks the circuit in topological order, asks
   [simplify] what each combinational node becomes, and takes care of
   inputs, flip-flops, output marks and name preservation. [simplify]
   receives the original node and its fanin replacements; [Id] results it
   returns must be nodes it created through the builder, named after the
   original node when a node of the same role is emitted. Only nodes that
   satisfy [live] are rebuilt, except the primary inputs, which always
   survive; [live] must hold for every fanin of a live node and for every
   primary output. *)
let rebuild ?(live = fun _ -> true) c simplify =
  let b = B.create ~name:c.Circuit.name () in
  let num = Circuit.num_nodes c in
  (* Invented nodes (materialised constants) never collide with source
     names. *)
  let fresh_name =
    Circuit.fresh_names "$k" (fun f ->
        Array.exists
          (fun (nd : Circuit.node) -> f nd.Circuit.name)
          c.Circuit.nodes)
  in
  let repl = Array.make num (Const false) in
  Array.iter
    (fun i -> repl.(i) <- Id (B.input b (Circuit.node c i).Circuit.name))
    c.Circuit.inputs;
  for i = 0 to num - 1 do
    let nd = Circuit.node c i in
    if live i && Gate.equal nd.Circuit.kind Gate.Dff then
      repl.(i) <- Id (B.dff_placeholder b nd.Circuit.name)
  done;
  let const_cache = Hashtbl.create 2 in
  let materialise_const v =
    match Hashtbl.find_opt const_cache v with
    | Some id -> id
    | None ->
        let kind = if v then Gate.Const1 else Gate.Const0 in
        let id = B.gate b ~name:(fresh_name ()) kind [||] in
        Hashtbl.add const_cache v id;
        id
  in
  let as_id = function Const v -> materialise_const v | Id id -> id in
  let order = Circuit.topological_order c in
  Array.iter
    (fun i ->
      let nd = Circuit.node c i in
      match nd.Circuit.kind with
      | Gate.Input | Gate.Dff -> ()
      | _ when not (live i) -> ()
      | _ ->
          let fanins = Array.map (fun f -> repl.(f)) nd.Circuit.fanins in
          repl.(i) <- simplify b nd fanins)
    order;
  (* Flip-flop data pins. *)
  for i = 0 to num - 1 do
    let nd = Circuit.node c i in
    if live i && Gate.equal nd.Circuit.kind Gate.Dff then
      match repl.(i) with
      | Id q -> B.connect_dff b q (as_id repl.(nd.Circuit.fanins.(0)))
      | Const _ -> assert false
  done;
  (* Primary outputs keep their signal names: when a driver was simplified
     away (alias or constant), re-emit it under the original name. *)
  Array.iter
    (fun o ->
      let name = (Circuit.node c o).Circuit.name in
      let id =
        match repl.(o) with
        | Const v ->
            B.gate b ~name (if v then Gate.Const1 else Gate.Const0) [||]
        | Id id ->
            if String.equal (B.name_of b id) name then id
            else B.gate b ~name Gate.Buf [| id |]
      in
      B.mark_output b id)
    c.Circuit.outputs;
  B.finish b

(* The fanins of a node whose fanins are all rebuilt nodes. *)
let ids fanins = Array.map (function Id id -> id | Const _ -> assert false) fanins

(* ------------------------------------------------------------------ *)
(* Constant propagation                                               *)
(* ------------------------------------------------------------------ *)

let propagate_constants c =
  let simplify b (nd : Circuit.node) fanins =
    let name = nd.Circuit.name in
    let consts, ids =
      Array.fold_right
        (fun r (cs, ids) ->
          match r with Const v -> (v :: cs, ids) | Id id -> (cs, id :: ids))
        fanins ([], [])
    in
    let gate kind ids = Id (B.gate b ~name kind (Array.of_list ids)) in
    match nd.Circuit.kind with
    | Gate.Const0 -> Const false
    | Gate.Const1 -> Const true
    | Gate.Buf -> (
        match fanins.(0) with Const v -> Const v | Id id -> Id id)
    | Gate.Not -> (
        match fanins.(0) with
        | Const v -> Const (not v)
        | Id id -> gate Gate.Not [ id ])
    | Gate.And ->
        if List.exists not consts then Const false
        else begin
          match ids with
          | [] -> Const true
          | [ x ] -> Id x
          | _ -> gate Gate.And ids
        end
    | Gate.Nand ->
        if List.exists not consts then Const true
        else begin
          match ids with
          | [] -> Const false
          | [ x ] -> gate Gate.Not [ x ]
          | _ -> gate Gate.Nand ids
        end
    | Gate.Or ->
        if List.exists Fun.id consts then Const true
        else begin
          match ids with
          | [] -> Const false
          | [ x ] -> Id x
          | _ -> gate Gate.Or ids
        end
    | Gate.Nor ->
        if List.exists Fun.id consts then Const false
        else begin
          match ids with
          | [] -> Const true
          | [ x ] -> gate Gate.Not [ x ]
          | _ -> gate Gate.Nor ids
        end
    | Gate.Xor | Gate.Xnor ->
        let flip0 = Gate.equal nd.Circuit.kind Gate.Xnor in
        let flip =
          List.fold_left (fun acc v -> if v then not acc else acc) flip0 consts
        in
        begin
          match ids with
          | [] -> Const flip
          | [ x ] -> if flip then gate Gate.Not [ x ] else Id x
          | _ -> gate (if flip then Gate.Xnor else Gate.Xor) ids
        end
    | Gate.Input | Gate.Dff -> assert false
  in
  rebuild c simplify

(* ------------------------------------------------------------------ *)
(* Buffer / double-inverter collapsing                                *)
(* ------------------------------------------------------------------ *)

let collapse_buffers c =
  (* Track, per rebuilt node, which new node is its inverter source so
     NOT(NOT(x)) can alias x. *)
  let inverter_of = Hashtbl.create 64 in
  let simplify b (nd : Circuit.node) fanins =
    let name = nd.Circuit.name in
    match (nd.Circuit.kind, fanins) with
    | Gate.Buf, [| Id id |] -> Id id
    | Gate.Not, [| Id id |] -> (
        match Hashtbl.find_opt inverter_of id with
        | Some src -> Id src
        | None ->
            let g = B.gate b ~name Gate.Not [| id |] in
            Hashtbl.replace inverter_of g id;
            Id g)
    | kind, _ -> Id (B.gate b ~name kind (ids fanins))
  in
  rebuild c simplify

(* ------------------------------------------------------------------ *)
(* Structural hashing                                                 *)
(* ------------------------------------------------------------------ *)

let commutative = function
  | Gate.And | Gate.Nand | Gate.Or | Gate.Nor | Gate.Xor | Gate.Xnor -> true
  | Gate.Not | Gate.Buf | Gate.Input | Gate.Dff | Gate.Const0 | Gate.Const1 ->
      false

let strash c =
  let table = Hashtbl.create 256 in
  let simplify b (nd : Circuit.node) fanins =
    let ids = ids fanins in
    let key =
      ( nd.Circuit.kind,
        if commutative nd.Circuit.kind then begin
          let sorted = Array.copy ids in
          Array.sort compare sorted;
          sorted
        end
        else ids )
    in
    match Hashtbl.find_opt table key with
    | Some id -> Id id
    | None ->
        let id = B.gate b ~name:nd.Circuit.name nd.Circuit.kind ids in
        Hashtbl.add table key id;
        Id id
  in
  rebuild c simplify

(* ------------------------------------------------------------------ *)
(* Dead-logic sweep                                                   *)
(* ------------------------------------------------------------------ *)

let sweep c =
  let live = Array.make (Circuit.num_nodes c) false in
  let rec mark i =
    if not live.(i) then begin
      live.(i) <- true;
      Array.iter mark (Circuit.node c i).Circuit.fanins
    end
  in
  Array.iter mark c.Circuit.outputs;
  (* Primary inputs survive even when unused: the chip interface is part
     of the specification. *)
  rebuild ~live:(Array.get live) c (fun b (nd : Circuit.node) fanins ->
      Id (B.gate b ~name:nd.Circuit.name nd.Circuit.kind (ids fanins)))

(* ------------------------------------------------------------------ *)
(* Fixpoint                                                           *)
(* ------------------------------------------------------------------ *)

let optimize c =
  let step c = sweep (strash (collapse_buffers (propagate_constants c))) in
  let rec loop c n =
    let c' = step c in
    if n = 0 || Circuit.num_nodes c' = Circuit.num_nodes c then c'
    else loop c' (n - 1)
  in
  loop c 8
