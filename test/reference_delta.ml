(* [Delta.apply] as it was before the rebuild moved to
   [Netlist.Elaborate.canonical], kept verbatim as the reference the
   current one must agree with: the same circuit or the same typed
   error. *)
open Netlist
open Delta

type def = { kind : Gate.kind; fanins : string array }

let ( let* ) = Result.bind

(* Edits run against a name-keyed view of the circuit; cross-references
   (fanins of surviving cells, the removed set) are validated only after
   the last op so a delta may add cells in any order and a flip-flop's D
   may read forward. The edited circuit is then rebuilt in sorted-name DFS
   order — the canonical order of the service digest — so equal edited
   circuits are equal values regardless of op order or base node order. *)
let apply (c : Circuit.t) (ops : t) =
  let defs = Hashtbl.create (Array.length c.Circuit.nodes * 2) in
  let removed = Hashtbl.create 8 in
  let outputs = Hashtbl.create (Array.length c.Circuit.outputs * 2) in
  Array.iter
    (fun (node : Circuit.node) ->
      Hashtbl.replace defs node.Circuit.name
        {
          kind = node.Circuit.kind;
          fanins =
            Array.map
              (fun id -> (Circuit.node c id).Circuit.name)
              node.Circuit.fanins;
        })
    c.Circuit.nodes;
  Array.iter
    (fun id -> Hashtbl.replace outputs (Circuit.node c id).Circuit.name ())
    c.Circuit.outputs;
  let step = function
    | Add_cell { name; kind; fanins } ->
        if Hashtbl.mem defs name then Error (Duplicate_cell name)
        else if not (Gate.arity_ok kind (List.length fanins)) then
          Error
            (Invalid
               (Printf.sprintf "cell %S: %s cannot take %d fanins" name
                  (Gate.to_string kind) (List.length fanins)))
        else begin
          Hashtbl.replace defs name { kind; fanins = Array.of_list fanins };
          Hashtbl.remove removed name;
          Ok ()
        end
    | Remove_cell name ->
        if not (Hashtbl.mem defs name) then Error (Unknown_cell name)
        else begin
          Hashtbl.remove defs name;
          Hashtbl.replace removed name ();
          Hashtbl.remove outputs name;
          Ok ()
        end
    | Rewire { cell; pin; net } -> (
        match Hashtbl.find_opt defs cell with
        | None -> Error (Unknown_cell cell)
        | Some def ->
            if pin < 0 || pin >= Array.length def.fanins then
              Error (Bad_pin { cell; pin })
            else begin
              let fanins = Array.copy def.fanins in
              fanins.(pin) <- net;
              Hashtbl.replace defs cell { def with fanins };
              Ok ()
            end)
    | Set_output { net; output } ->
        if not (Hashtbl.mem defs net) then Error (Unknown_cell net)
        else begin
          if output then Hashtbl.replace outputs net ()
          else Hashtbl.remove outputs net;
          Ok ()
        end
  in
  let rec steps = function
    | [] -> Ok ()
    | op :: rest ->
        let* () = step op in
        steps rest
  in
  let* () = steps ops in
  let names =
    Hashtbl.fold (fun name _ acc -> name :: acc) defs []
    |> List.sort String.compare
  in
  (* Reference check, in sorted-name order so the reported error is a pure
     function of the edited circuit. *)
  let rec check_refs = function
    | [] -> Ok ()
    | name :: rest -> (
        let def = Hashtbl.find defs name in
        let bad =
          Array.fold_left
            (fun acc f ->
              match acc with
              | Some _ -> acc
              | None -> if Hashtbl.mem defs f then None else Some f)
            None def.fanins
        in
        match bad with
        | Some f when Hashtbl.mem removed f ->
            Error (Still_referenced { removed = f; by = name })
        | Some f -> Error (Unknown_net { cell = name; net = f })
        | None -> check_refs rest)
  in
  let* () = check_refs names in
  (* Canonical rebuild: sorted-name DFS with DFF placeholders (a
     flip-flop's D cone may read its own Q). *)
  match
    let b = Circuit.Builder.create ~name:c.Circuit.name () in
    let ids = Hashtbl.create (List.length names) in
    (* Grey set for the DFS: an edit can close a combinational cycle,
       which must surface as [Invalid], not unbounded recursion. Cycles
       through a flip-flop are fine — its Q resolves as a placeholder
       without visiting the D cone. *)
    let visiting = Hashtbl.create 16 in
    let rec resolve name =
      match Hashtbl.find_opt ids name with
      | Some id -> id
      | None ->
          if Hashtbl.mem visiting name then
            invalid_arg
              (Printf.sprintf "combinational cycle through [%s]" name);
          Hashtbl.replace visiting name ();
          let def = Hashtbl.find defs name in
          let id =
            match def.kind with
            | Gate.Input -> Circuit.Builder.input b name
            | Gate.Dff -> Circuit.Builder.dff_placeholder b name
            | kind ->
                Circuit.Builder.gate b ~name kind (Array.map resolve def.fanins)
          in
          Hashtbl.remove visiting name;
          Hashtbl.replace ids name id;
          id
    in
    List.iter (fun name -> ignore (resolve name)) names;
    List.iter
      (fun name ->
        let def = Hashtbl.find defs name in
        if Gate.equal def.kind Gate.Dff then
          Circuit.Builder.connect_dff b (Hashtbl.find ids name)
            (resolve def.fanins.(0)))
      names;
    Hashtbl.fold (fun name _ acc -> name :: acc) outputs []
    |> List.sort String.compare
    |> List.iter (fun name ->
           Circuit.Builder.mark_output b (Hashtbl.find ids name));
    Circuit.Builder.finish b
  with
  | circuit -> Ok circuit
  | exception Invalid_argument msg -> Error (Invalid msg)
