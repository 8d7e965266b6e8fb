(* The BLIF parser as it was before name resolution moved to
   [Netlist.Elaborate], kept verbatim as the reference the current
   parser must agree with on every text: the same circuit or the same
   error string. *)
open Netlist

module B = Circuit.Builder

(* ------------------------------------------------------------------ *)
(* Lexing: comments, '\' line continuations, whitespace splitting.    *)
(* ------------------------------------------------------------------ *)

let logical_lines text =
  let raw = String.split_on_char '\n' text in
  let rec join acc pending lineno start = function
    | [] -> List.rev (if pending = "" then acc else (start, pending) :: acc)
    | line :: rest ->
        let line =
          match String.index_opt line '#' with
          | Some i -> String.sub line 0 i
          | None -> line
        in
        let line = String.trim line in
        let continued = String.length line > 0 && line.[String.length line - 1] = '\\' in
        let body =
          if continued then String.sub line 0 (String.length line - 1) else line
        in
        let pending' = if pending = "" then body else pending ^ " " ^ body in
        let start' = if pending = "" then lineno else start in
        if continued then join acc pending' (lineno + 1) start' rest
        else if String.trim pending' = "" then join acc "" (lineno + 1) 0 rest
        else join ((start', String.trim pending') :: acc) "" (lineno + 1) 0 rest
  in
  join [] "" 1 0 raw

let words s =
  String.split_on_char ' ' s |> List.filter (fun w -> String.length w > 0)

(* ------------------------------------------------------------------ *)
(* Parsing into statements                                            *)
(* ------------------------------------------------------------------ *)

(* Statements stay paired with their source line so the elaboration
   phase can report duplicates and dangling references by line. *)
type stmt =
  | Model of string
  | Inputs of string list
  | Outputs of string list
  | Names of string list * string * (string * char) list
      (** input signals, output signal, cover rows (pattern, value) *)
  | Latch of string * string  (* d, q *)

let parse_stmts lines =
  let err lineno msg = Error (Printf.sprintf "line %d: %s" lineno msg) in
  let rec loop acc = function
    | [] -> Ok (List.rev acc)
    | (lineno, line) :: rest -> (
        match words line with
        | ".model" :: name :: _ -> loop ((lineno, Model name) :: acc) rest
        | ".inputs" :: ins -> loop ((lineno, Inputs ins) :: acc) rest
        | ".outputs" :: outs -> loop ((lineno, Outputs outs) :: acc) rest
        | ".latch" :: args -> (
            (* .latch input output [type control] [init] *)
            match args with
            | d :: q :: _ -> loop ((lineno, Latch (d, q)) :: acc) rest
            | _ -> err lineno ".latch needs input and output")
        | ".names" :: signals -> (
            match List.rev signals with
            | [] -> err lineno ".names needs at least an output"
            | out :: rev_ins ->
                let ins = List.rev rev_ins in
                (* Collect cover rows until the next dot-directive. *)
                let rec rows acc_rows = function
                  | (rl, row) :: more when String.length row > 0 && row.[0] <> '.'
                    -> (
                      match words row with
                      | [ pattern; value ]
                        when List.length ins > 0
                             && String.length pattern = List.length ins
                             && String.length value = 1
                             && String.for_all
                                  (fun ch -> ch = '0' || ch = '1' || ch = '-')
                                  pattern
                             && (value.[0] = '0' || value.[0] = '1') ->
                          rows ((pattern, value.[0]) :: acc_rows) more
                      | [ value ]
                        when ins = [] && String.length value = 1
                             && (value.[0] = '0' || value.[0] = '1') ->
                          rows (("", value.[0]) :: acc_rows) more
                      | _ -> err rl ("bad cover row: " ^ row))
                  | more ->
                      loop ((lineno, Names (ins, out, List.rev acc_rows)) :: acc)
                        more
                and err rl msg = Error (Printf.sprintf "line %d: %s" rl msg) in
                rows [] rest)
        | ".end" :: _ -> loop acc rest
        | ".exdc" :: _ -> err lineno "external don't-cares are not supported"
        | dir :: _ when String.length dir > 0 && dir.[0] = '.' ->
            err lineno ("unsupported directive: " ^ dir)
        | _ -> err lineno ("unexpected line: " ^ line))
  in
  loop [] lines

(* ------------------------------------------------------------------ *)
(* Elaboration                                                        *)
(* ------------------------------------------------------------------ *)

type decl =
  | D_input
  | D_latch of string  (* data signal *)
  | D_names of string list * (string * char) list

let build stmts =
  let model = ref "blif" in
  let decls = Hashtbl.create 256 in
  (* name -> lineno * decl *)
  let order = Vec.create () in
  let outputs = Vec.create () in
  let declare lineno name d =
    match Hashtbl.find_opt decls name with
    | Some (first, _) ->
        Error
          (Printf.sprintf "line %d: duplicate definition of %s (first at line %d)"
             lineno name first)
    | None ->
        Hashtbl.add decls name (lineno, d);
        ignore (Vec.push order name);
        Ok ()
  in
  let rec scan = function
    | [] -> Ok ()
    | (_, Model name) :: rest ->
        model := name;
        scan rest
    | (lineno, Inputs ins) :: rest -> (
        let rec each = function
          | [] -> scan rest
          | i :: more -> (
              match declare lineno i D_input with
              | Error _ as e -> e
              | Ok () -> each more)
        in
        each ins)
    | (lineno, Outputs outs) :: rest ->
        List.iter (fun o -> ignore (Vec.push outputs (lineno, o))) outs;
        scan rest
    | (lineno, Latch (d, q)) :: rest -> (
        match declare lineno q (D_latch d) with
        | Error _ as e -> e
        | Ok () -> scan rest)
    | (lineno, Names (ins, out, rows)) :: rest -> (
        match declare lineno out (D_names (ins, rows)) with
        | Error _ as e -> e
        | Ok () -> scan rest)
  in
  match scan stmts with
  | Error _ as e -> e
  | Ok () -> (
      let b = B.create ~name:!model () in
      (* Fresh names for synthesised cover terms. *)
      let clashes p =
        Vec.fold_left
          (fun acc name -> acc || String.starts_with ~prefix:p name)
          false order
      in
      let prefix =
        let rec search p = if clashes p then search ("$" ^ p) else p in
        search "$b"
      in
      let counter = ref 0 in
      let fresh () =
        let name = Printf.sprintf "%s%d" prefix !counter in
        incr counter;
        name
      in
      let ids = Hashtbl.create 256 in
      let visiting = Hashtbl.create 16 in
      let exception Fail of string in
      (* [at] is the line whose fanin list is being resolved — the best
         source position for a dangling reference. *)
      let rec resolve ~at name =
        match Hashtbl.find_opt ids name with
        | Some id -> id
        | None -> (
            if Hashtbl.mem visiting name then
              raise
                (Fail
                   (Printf.sprintf "line %d: combinational cycle at %s" at name));
            match Hashtbl.find_opt decls name with
            | None ->
                raise
                  (Fail (Printf.sprintf "line %d: undefined signal: %s" at name))
            | Some (lineno, d) ->
                let id =
                  match d with
                  | D_input -> B.input b name
                  | D_latch _ -> B.dff_placeholder b name
                  | D_names (ins, rows) ->
                      Hashtbl.replace visiting name ();
                      let in_ids = List.map (resolve ~at:lineno) ins in
                      Hashtbl.remove visiting name;
                      synthesize_cover b ~fresh ~name in_ids rows
                in
                Hashtbl.replace ids name id;
                id)
      and synthesize_cover b ~fresh ~name in_ids rows =
        (* All rows must agree on the output value: on-set (1) or
           off-set (0). *)
        let values = List.map snd rows |> List.sort_uniq compare in
        (match values with
        | [] | [ _ ] -> ()
        | _ -> raise (Fail ("mixed cover polarity for " ^ name)));
        let on_set = match values with [ '0' ] -> false | _ -> true in
        let term pattern =
          (* AND of the literals one row requires; None = always true. *)
          let literals =
            List.filteri (fun _ _ -> true) in_ids
            |> List.mapi (fun k id -> (pattern.[k], id))
            |> List.filter_map (fun (ch, id) ->
                   match ch with
                   | '1' -> Some id
                   | '0' -> Some (B.gate b ~name:(fresh ()) Gate.Not [| id |])
                   | _ -> None)
          in
          match literals with
          | [] -> None
          | [ x ] -> Some x
          | xs -> Some (B.gate b ~name:(fresh ()) Gate.And (Array.of_list xs))
        in
        let terms = List.map (fun (p, _) -> term p) rows in
        if List.exists Option.is_none terms then
          (* Some row accepts everything: the cover is constant. *)
          B.gate b ~name (if on_set then Gate.Const1 else Gate.Const0) [||]
        else
          let terms = List.map Option.get terms in
          match (terms, on_set) with
          | [], true -> B.gate b ~name Gate.Const0 [||]
          | [], false -> B.gate b ~name Gate.Const1 [||]
          | [ x ], true -> B.gate b ~name Gate.Buf [| x |]
          | [ x ], false -> B.gate b ~name Gate.Not [| x |]
          | xs, true -> B.gate b ~name Gate.Or (Array.of_list xs)
          | xs, false -> B.gate b ~name Gate.Nor (Array.of_list xs)
      in
      try
        Vec.iter
          (fun name ->
            let at, _ = Hashtbl.find decls name in
            ignore (resolve ~at name))
          order;
        Vec.iter
          (fun name ->
            match Hashtbl.find_opt decls name with
            | Some (lineno, D_latch d) ->
                B.connect_dff b (Hashtbl.find ids name) (resolve ~at:lineno d)
            | _ -> ())
          order;
        Vec.iter
          (fun (lineno, name) ->
            match Hashtbl.find_opt ids name with
            | Some id -> B.mark_output b id
            | None ->
                raise
                  (Fail
                     (Printf.sprintf "line %d: undefined output signal: %s"
                        lineno name)))
          outputs;
        Ok (B.finish b)
      with
      | Fail msg -> Error msg
      | Invalid_argument msg -> Error msg)

let parse text =
  match parse_stmts (logical_lines text) with
  | Error _ as e -> e
  | Ok stmts -> build stmts

let parse_file path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | text -> parse text

(* ------------------------------------------------------------------ *)
(* Writing                                                            *)
(* ------------------------------------------------------------------ *)

let to_string c =
  let buf = Buffer.create 4096 in
  let name_of i = (Circuit.node c i).Circuit.name in
  Buffer.add_string buf (Printf.sprintf ".model %s\n" c.Circuit.name);
  let emit_signals dir ids =
    if Array.length ids > 0 then begin
      Buffer.add_string buf dir;
      Array.iter
        (fun i ->
          Buffer.add_char buf ' ';
          Buffer.add_string buf (name_of i))
        ids;
      Buffer.add_char buf '\n'
    end
  in
  emit_signals ".inputs" c.Circuit.inputs;
  emit_signals ".outputs" c.Circuit.outputs;
  let emit_names i =
    let nd = Circuit.node c i in
    let ins = nd.Circuit.fanins in
    let header () =
      Buffer.add_string buf ".names";
      Array.iter
        (fun f ->
          Buffer.add_char buf ' ';
          Buffer.add_string buf (name_of f))
        ins;
      Buffer.add_char buf ' ';
      Buffer.add_string buf nd.Circuit.name;
      Buffer.add_char buf '\n'
    in
    let n = Array.length ins in
    let row pattern v = Buffer.add_string buf (pattern ^ " " ^ v ^ "\n") in
    match nd.Circuit.kind with
    | Gate.Input | Gate.Dff -> ()
    | Gate.Const0 -> header ()
    | Gate.Const1 ->
        header ();
        Buffer.add_string buf "1\n"
    | Gate.Buf ->
        header ();
        row "1" "1"
    | Gate.Not ->
        header ();
        row "0" "1"
    | Gate.And ->
        header ();
        row (String.make n '1') "1"
    | Gate.Nand ->
        header ();
        row (String.make n '1') "0"
    | Gate.Or ->
        header ();
        row (String.make n '0') "0"
    | Gate.Nor ->
        header ();
        row (String.make n '0') "1"
    | Gate.Xor | Gate.Xnor ->
        if n > 12 then
          invalid_arg
            ("Blif.to_string: " ^ Gate.to_string nd.Circuit.kind
           ^ " wider than 12 inputs; decompose first");
        header ();
        let want_odd = Gate.equal nd.Circuit.kind Gate.Xor in
        for v = 0 to (1 lsl n) - 1 do
          let ones = ref 0 in
          let pattern =
            String.init n (fun k ->
                if v land (1 lsl k) <> 0 then begin
                  incr ones;
                  '1'
                end
                else '0')
          in
          if !ones mod 2 = if want_odd then 1 else 0 then row pattern "1"
        done
  in
  let order = Circuit.topological_order c in
  Array.iter emit_names order;
  Array.iter
    (fun i ->
      let nd = Circuit.node c i in
      if Gate.equal nd.Circuit.kind Gate.Dff then
        Buffer.add_string buf
          (Printf.sprintf ".latch %s %s 0\n" (name_of nd.Circuit.fanins.(0))
             nd.Circuit.name))
    order;
  Buffer.add_string buf ".end\n";
  Buffer.contents buf

let write_file path c =
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (to_string c))
