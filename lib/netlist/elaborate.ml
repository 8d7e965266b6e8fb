type error =
  | Duplicate of { signal : int; line : int; first : int }
  | Undefined of { signal : int; line : int }
  | Cycle of { signal : int; line : int }
  | Dff_arity of { signal : int; line : int }
  | Undefined_output of { signal : int; line : int }
  | Builder of string

let error_to_string name = function
  | Duplicate { signal; line; first } ->
      Printf.sprintf "line %d: duplicate definition of %s (first at line %d)"
        line (name signal) first
  | Undefined { signal; line } ->
      Printf.sprintf "line %d: undefined signal: %s" line (name signal)
  | Cycle { signal; line } ->
      Printf.sprintf "line %d: combinational cycle at %s" line (name signal)
  | Dff_arity { signal; line } ->
      Printf.sprintf "line %d: DFF %s needs one fanin" line (name signal)
  | Undefined_output { signal; line } ->
      Printf.sprintf "line %d: undefined output signal: %s" line (name signal)
  | Builder msg -> msg

type source = {
  statements : int;
  signal : int -> int;
  output : int -> bool;
  kind : int -> Gate.kind;
  line : int -> int;
  arity : int -> int;
  fanin : int -> int -> int;
  signals : int;
  name : int -> string;
}

exception Failed of error

(* [ids.(s)] is signal [s]'s node, [unresolved] before the search
   reaches it and [visiting] while its fanins resolve. *)
let unresolved = -1
let visiting = -2

let run ?build b src =
  let fail e = raise (Failed e) in
  let declares i = not (src.output i) in
  (* [decl.(s)] is the statement declaring [s], or -1. *)
  let decl = Array.make src.signals (-1) in
  let ids = Array.make src.signals unresolved in
  (* [at] is the line of the statement whose fanins are resolving: the
     best source position for a dangling name. *)
  let rec resolve at s =
    let node = ids.(s) in
    if node >= 0 then node
    else begin
      if node = visiting then fail (Cycle { signal = s; line = at });
      let i = decl.(s) in
      if i < 0 then fail (Undefined { signal = s; line = at });
      let node =
        match src.kind i with
        | Gate.Input -> Circuit.Builder.input b (src.name s)
        | Gate.Dff -> Circuit.Builder.dff_placeholder b (src.name s)
        | kind -> (
            ids.(s) <- visiting;
            match build with
            | Some build -> build (resolve (src.line i)) i
            | None -> gate i s kind)
      in
      ids.(s) <- node;
      node
    end
  and gate i s kind =
    let at = src.line i and n = src.arity i in
    for j = 0 to n - 1 do
      ignore (resolve at (src.fanin i j))
    done;
    let fanins = Array.make n 0 in
    for j = 0 to n - 1 do
      fanins.(j) <- ids.(src.fanin i j)
    done;
    Circuit.Builder.gate b ~name:(src.name s) kind fanins
  in
  match
    for i = 0 to src.statements - 1 do
      if declares i then begin
        let s = src.signal i in
        if decl.(s) >= 0 then
          fail
            (Duplicate
               { signal = s; line = src.line i; first = src.line decl.(s) });
        decl.(s) <- i
      end
    done;
    for i = 0 to src.statements - 1 do
      if declares i then ignore (resolve (src.line i) (src.signal i))
    done;
    for i = 0 to src.statements - 1 do
      if declares i && Gate.equal (src.kind i) Gate.Dff then begin
        let s = src.signal i and at = src.line i in
        if src.arity i <> 1 then fail (Dff_arity { signal = s; line = at });
        Circuit.Builder.connect_dff b ids.(s) (resolve at (src.fanin i 0))
      end
    done;
    for i = 0 to src.statements - 1 do
      if src.output i then begin
        let s = src.signal i in
        if ids.(s) < 0 then
          fail (Undefined_output { signal = s; line = src.line i });
        Circuit.Builder.mark_output b ids.(s)
      end
    done;
    Circuit.Builder.finish b
  with
  | circuit -> Ok circuit
  | exception Failed e -> Error e
  | exception Invalid_argument msg -> Error (Builder msg)

let canonical ~name ~signals ~signal_name ~kind ~fanins ~outputs =
  let by_name a b = String.compare (signal_name a) (signal_name b) in
  let order = Array.init signals Fun.id in
  Array.sort by_name order;
  let outputs = Array.copy outputs in
  Array.sort by_name outputs;
  let node i = if i < signals then order.(i) else outputs.(i - signals) in
  run
    (Circuit.Builder.create ~name ~size:signals ())
    {
      statements = signals + Array.length outputs;
      signal = node;
      output = (fun i -> i >= signals);
      kind = (fun i -> kind (node i));
      line = (fun _ -> 0);
      arity = (fun i -> Array.length (fanins (node i)));
      fanin = (fun i j -> (fanins (node i)).(j));
      signals;
      name = signal_name;
    }

module Table = struct
  type 'a decl = Input | Dff of int | Gate of 'a | Output
  type 'a stmt = { line : int; signal : int; decl : 'a decl }

  type 'a t = {
    ids : (string, int) Hashtbl.t;
    names : string Vec.t;  (* signal id -> name *)
    stmts : 'a stmt Vec.t;
  }

  let create () =
    { ids = Hashtbl.create 256; names = Vec.create (); stmts = Vec.create () }

  let id t name =
    match Hashtbl.find_opt t.ids name with
    | Some s -> s
    | None ->
        let s = Vec.push t.names name in
        Hashtbl.add t.ids name s;
        s

  let name t s = Vec.get t.names s

  let add t ~line name decl =
    ignore (Vec.push t.stmts { line; signal = id t name; decl })

  let fresh_names t base =
    Circuit.fresh_names base (fun f ->
        Vec.exists
          (fun st -> st.decl <> Output && f (name t st.signal))
          t.stmts)

  let run t b ~build =
    let stmts = Vec.to_array t.stmts in
    run
      ~build:(fun resolve i ->
        match stmts.(i).decl with
        | Gate payload -> build resolve (name t stmts.(i).signal) payload
        | Input | Dff _ | Output -> assert false)
      b
      {
        statements = Array.length stmts;
        signal = (fun i -> stmts.(i).signal);
        output = (fun i -> stmts.(i).decl = Output);
        kind =
          (fun i ->
            match stmts.(i).decl with
            | Dff _ -> Gate.Dff
            | Gate _ -> Gate.Buf (* any combinational kind *)
            | Input | Output -> Gate.Input);
        line = (fun i -> stmts.(i).line);
        arity = (fun i -> match stmts.(i).decl with Dff _ -> 1 | _ -> 0);
        fanin = (fun i _ -> match stmts.(i).decl with Dff d -> d | _ -> -1);
        signals = Vec.length t.names;
        name = name t;
      }
end
