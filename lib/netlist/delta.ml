type op =
  | Add_cell of { name : string; kind : Gate.kind; fanins : string list }
  | Remove_cell of string
  | Rewire of { cell : string; pin : int; net : string }
  | Set_output of { net : string; output : bool }

type t = op list

type error =
  | Duplicate_cell of string
  | Unknown_cell of string
  | Unknown_net of { cell : string; net : string }
  | Still_referenced of { removed : string; by : string }
  | Bad_pin of { cell : string; pin : int }
  | Invalid of string

let error_to_string = function
  | Duplicate_cell name -> Printf.sprintf "duplicate cell name %S" name
  | Unknown_cell name -> Printf.sprintf "no such cell %S" name
  | Unknown_net { cell; net } ->
      Printf.sprintf "cell %S reads unknown signal %S" cell net
  | Still_referenced { removed; by } ->
      Printf.sprintf "removed cell %S is still read by %S" removed by
  | Bad_pin { cell; pin } ->
      Printf.sprintf "cell %S has no fanin pin %d" cell pin
  | Invalid msg -> msg

let is_empty = function [] -> true | _ :: _ -> false

type def = { kind : Gate.kind; fanins : string array }

(* ------------------------------------------------------------------ *)
(* Apply                                                              *)
(* ------------------------------------------------------------------ *)

let ( let* ) = Result.bind

(* Edits run against a name-keyed view of the circuit; cross-references
   (fanins of surviving cells, the removed set) are validated only after
   the last op so a delta may add cells in any order and a flip-flop's D
   may read forward. The edited circuit is then built in canonical form
   ({!Elaborate.canonical}, the form the service digest hashes), so equal
   edited circuits are equal values regardless of op order or base node
   order. *)
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
    Array.of_list (Hashtbl.fold (fun name _ acc -> name :: acc) defs [])
  in
  Array.sort String.compare names;
  (* Reference check, in sorted-name order so the reported error is a pure
     function of the edited circuit. *)
  let rec check_refs i =
    if i = Array.length names then Ok ()
    else
      let name = names.(i) in
      let fanins = (Hashtbl.find defs name).fanins in
      match Array.find_opt (fun f -> not (Hashtbl.mem defs f)) fanins with
      | Some f when Hashtbl.mem removed f ->
          Error (Still_referenced { removed = f; by = name })
      | Some f -> Error (Unknown_net { cell = name; net = f })
      | None -> check_refs (i + 1)
  in
  let* () = check_refs 0 in
  (* The edited circuit, numbered by sorted name, in canonical form. *)
  let index = Hashtbl.create (Array.length names) in
  Array.iteri (fun i name -> Hashtbl.replace index name i) names;
  let ids = Array.map (Hashtbl.find index) in
  let defs = Array.map (Hashtbl.find defs) names in
  let fanins = Array.map (fun d -> ids d.fanins) defs in
  let outputs = Hashtbl.fold (fun o () acc -> o :: acc) outputs [] in
  match
    Elaborate.canonical ~name:c.Circuit.name ~signals:(Array.length names)
      ~signal_name:(Array.get names)
      ~kind:(fun i -> defs.(i).kind)
      ~fanins:(Array.get fanins)
      ~outputs:(ids (Array.of_list outputs))
  with
  | Ok circuit -> Ok circuit
  | Error (Elaborate.Cycle { signal; _ }) ->
      Error
        (Invalid
           (Printf.sprintf "combinational cycle through [%s]" names.(signal)))
  | Error e ->
      (* A builder rejection; [check_refs] and [Add_cell]'s arity check
         leave no other. *)
      Error (Invalid (Elaborate.error_to_string (Array.get names) e))

(* ------------------------------------------------------------------ *)
(* Random deltas                                                      *)
(* ------------------------------------------------------------------ *)

(* Cycle safety by construction: every signal carries a float position,
   initially its index in the base topological order; every combinational
   fanin edge the generator creates points from a strictly smaller
   position to a larger one (inserted gates sit just below their consumer,
   between their sources and it). A combinational cycle would need a
   non-increasing edge, so none can appear, whatever the op mix. D-pin
   edges of flip-flops are exempt in the base order but the generator
   applies the same conservative rule to them. *)
let random ~seed ~frac (c : Circuit.t) =
  let rng = Rng.create seed in
  let n = Circuit.num_nodes c in
  let order = Circuit.topological_order c in
  let pos = Hashtbl.create (n * 2) in
  let kind_of = Hashtbl.create (n * 2) in
  let fanins_of = Hashtbl.create (n * 2) in
  let refcount = Hashtbl.create (n * 2) in
  let is_po = Hashtbl.create 16 in
  Array.iteri
    (fun i id ->
      Hashtbl.replace pos (Circuit.node c id).Circuit.name (float_of_int i))
    order;
  Array.iter
    (fun (node : Circuit.node) ->
      Hashtbl.replace kind_of node.Circuit.name node.Circuit.kind;
      Hashtbl.replace fanins_of node.Circuit.name
        (Array.map (fun id -> (Circuit.node c id).Circuit.name) node.Circuit.fanins))
    c.Circuit.nodes;
  let bump name by =
    let v = try Hashtbl.find refcount name with Not_found -> 0 in
    Hashtbl.replace refcount name (v + by)
  in
  Array.iter
    (fun (node : Circuit.node) ->
      Array.iter
        (fun id -> bump (Circuit.node c id).Circuit.name 1)
        node.Circuit.fanins)
    c.Circuit.nodes;
  Array.iter
    (fun id -> Hashtbl.replace is_po (Circuit.node c id).Circuit.name ())
    c.Circuit.outputs;
  let names =
    ref (Array.map (fun (node : Circuit.node) -> node.Circuit.name) c.Circuit.nodes)
  in
  let drop_name name =
    names := Array.of_list (List.filter (( <> ) name) (Array.to_list !names))
  in
  let push_name name =
    names := Array.append !names [| name |]
  in
  let fresh =
    let k = ref 0 in
    fun () ->
      let rec next () =
        let cand = Printf.sprintf "eco%d" !k in
        incr k;
        if Hashtbl.mem pos cand then next () else cand
      in
      next ()
  in
  (* A random signal strictly below [limit]; None after bounded retries. *)
  let source_below limit =
    let rec go tries =
      if tries = 0 then None
      else
        let s = Rng.pick rng !names in
        if Hashtbl.find pos s < limit then Some s else go (tries - 1)
    in
    go 24
  in
  let victim_with_pins () =
    let rec go tries =
      if tries = 0 then None
      else
        let g = Rng.pick rng !names in
        if Array.length (Hashtbl.find fanins_of g) > 0 then Some g
        else go (tries - 1)
    in
    go 24
  in
  let gate_kinds = [| Gate.And; Gate.Or; Gate.Nand; Gate.Nor; Gate.Xor |] in
  let target = max 1 (int_of_float ((frac *. float_of_int n) +. 0.5)) in
  let ops = ref [] in
  let emitted = ref 0 in
  let emit op =
    ops := op :: !ops;
    incr emitted
  in
  let attempts = ref (target * 24) in
  while !emitted < target && !attempts > 0 do
    decr attempts;
    let roll = Rng.int rng 100 in
    if roll < 55 then begin
      (* Insert a fresh gate on one pin of a victim: the classic ECO. *)
      match victim_with_pins () with
      | None -> ()
      | Some g -> (
          let gpos = Hashtbl.find pos g in
          let gfan = Hashtbl.find fanins_of g in
          let p = Rng.int rng (Array.length gfan) in
          let old = gfan.(p) in
          let unary = Rng.int rng 100 < 25 in
          let kind =
            if unary then if Rng.bool rng then Gate.Not else Gate.Buf
            else Rng.pick rng gate_kinds
          in
          let want = if unary then 1 else 2 in
          let srcs = ref [] in
          if Hashtbl.find pos old < gpos then srcs := [ old ];
          let missing = want - List.length !srcs in
          let filled = ref true in
          for _ = 1 to missing do
            match source_below gpos with
            | Some s -> srcs := s :: !srcs
            | None -> filled := false
          done;
          match !filled with
          | false -> ()
          | true ->
              let srcs = List.rev !srcs in
              let name = fresh () in
              let vpos =
                let below =
                  List.fold_left
                    (fun acc s -> Float.max acc (Hashtbl.find pos s))
                    (-1.0) srcs
                in
                (below +. gpos) /. 2.0
              in
              emit (Add_cell { name; kind; fanins = srcs });
              emit (Rewire { cell = g; pin = p; net = name });
              Hashtbl.replace pos name vpos;
              Hashtbl.replace kind_of name kind;
              Hashtbl.replace fanins_of name (Array.of_list srcs);
              List.iter (fun s -> bump s 1) srcs;
              bump name 1;
              bump old (-1);
              gfan.(p) <- name;
              push_name name)
    end
    else if roll < 78 then begin
      (* Rewire one pin of a victim to an earlier signal. *)
      match victim_with_pins () with
      | None -> ()
      | Some g -> (
          let gpos = Hashtbl.find pos g in
          let gfan = Hashtbl.find fanins_of g in
          let p = Rng.int rng (Array.length gfan) in
          match source_below gpos with
          | Some s when s <> gfan.(p) && s <> g ->
              emit (Rewire { cell = g; pin = p; net = s });
              bump gfan.(p) (-1);
              bump s 1;
              gfan.(p) <- s
          | _ -> ())
    end
    else if roll < 90 then begin
      (* Toggle an observation point. *)
      let s = Rng.pick rng !names in
      if Hashtbl.mem is_po s then begin
        (* Unmark only while other outputs remain. *)
        if Hashtbl.length is_po > 1 then begin
          emit (Set_output { net = s; output = false });
          Hashtbl.remove is_po s
        end
      end
      else if not (Gate.equal (Hashtbl.find kind_of s) Gate.Input) then begin
        emit (Set_output { net = s; output = true });
        Hashtbl.replace is_po s ()
      end
    end
    else begin
      (* Remove a dead cell, when the edits so far produced one. *)
      let rec hunt tries =
        if tries = 0 then None
        else
          let s = Rng.pick rng !names in
          let reads = try Hashtbl.find refcount s with Not_found -> 0 in
          if
            reads = 0
            && (not (Hashtbl.mem is_po s))
            && not (Gate.equal (Hashtbl.find kind_of s) Gate.Input)
          then Some s
          else hunt (tries - 1)
      in
      match hunt 24 with
      | None -> ()
      | Some s ->
          emit (Remove_cell s);
          Array.iter (fun f -> bump f (-1)) (Hashtbl.find fanins_of s);
          Hashtbl.remove fanins_of s;
          Hashtbl.remove kind_of s;
          Hashtbl.remove pos s;
          Hashtbl.remove refcount s;
          drop_name s
    end
  done;
  List.rev !ops
