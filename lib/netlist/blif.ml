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

module T = Elaborate.Table

(* Statements go straight into the name table with their source line, so
   elaboration can report duplicates and dangling references by line. A
   cover carries its input ids and its rows (pattern, value). Returns the
   model name. *)
let parse_stmts t lines =
  let err lineno msg = Error (Printf.sprintf "line %d: %s" lineno msg) in
  let rec loop model = function
    | [] -> Ok model
    | (lineno, line) :: rest -> (
        let declare decl name = T.add t ~line:lineno name decl in
        match words line with
        | ".model" :: name :: _ -> loop name rest
        | ".inputs" :: ins ->
            List.iter (declare T.Input) ins;
            loop model rest
        | ".outputs" :: outs ->
            List.iter (declare T.Output) outs;
            loop model rest
        | ".latch" :: args -> (
            (* .latch input output [type control] [init] *)
            match args with
            | d :: q :: _ ->
                declare (T.Dff (T.id t d)) q;
                loop model rest
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
                      declare
                        (T.Gate (List.map (T.id t) ins, List.rev acc_rows))
                        out;
                      loop model more
                and err rl msg = Error (Printf.sprintf "line %d: %s" rl msg) in
                rows [] rest)
        | ".end" :: _ -> loop model rest
        | ".exdc" :: _ -> err lineno "external don't-cares are not supported"
        | dir :: _ when String.length dir > 0 && dir.[0] = '.' ->
            err lineno ("unsupported directive: " ^ dir)
        | _ -> err lineno ("unexpected line: " ^ line))
  in
  loop "blif" lines

(* ------------------------------------------------------------------ *)
(* Elaboration                                                        *)
(* ------------------------------------------------------------------ *)

(* A cover of [ins] as AND/OR/NOT gates: one AND (or literal) per row,
   then the OR (or NOR, for an off-set) of the rows, named [name]. *)
let synthesize_cover b ~fresh ~name in_ids rows =
  (* All rows must agree on the output value: on-set (1) or off-set (0). *)
  let values = List.map snd rows |> List.sort_uniq compare in
  (match values with
  | [] | [ _ ] -> ()
  | _ -> invalid_arg ("mixed cover polarity for " ^ name));
  let on_set = match values with [ '0' ] -> false | _ -> true in
  let term pattern =
    (* AND of the literals one row requires; None = always true. *)
    let literals =
      List.mapi (fun k id -> (pattern.[k], id)) in_ids
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

let parse text =
  let t = T.create () in
  match parse_stmts t (logical_lines text) with
  | Error _ as e -> e
  | Ok model -> (
      let b = B.create ~name:model () in
      (* Fresh names for synthesised cover terms. *)
      let fresh = T.fresh_names t "$b" in
      T.run t b ~build:(fun resolve name (ins, rows) ->
          synthesize_cover b ~fresh ~name (List.map resolve ins) rows)
      |> Result.map_error (Elaborate.error_to_string (T.name t)))

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
