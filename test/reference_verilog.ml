(* The Verilog parser as it was before name resolution moved to
   [Netlist.Elaborate], kept verbatim as the reference the current
   parser must agree with on every text: the same circuit or the same
   error string. *)
open Netlist

module B = Circuit.Builder

(* ------------------------------------------------------------------ *)
(* Tokenizer                                                          *)
(* ------------------------------------------------------------------ *)

type token =
  | Ident of string
  | Punct of char   (* ( ) , ; = *)
  | Op of char      (* ~ & | ^ *)
  | Const of bool   (* 1'b0 / 1'b1 *)

let is_ident_char ch =
  (ch >= 'a' && ch <= 'z')
  || (ch >= 'A' && ch <= 'Z')
  || (ch >= '0' && ch <= '9')
  || ch = '_' || ch = '$' || ch = '.' || ch = '[' || ch = ']'

let tokenize text =
  let n = String.length text in
  let tokens = Vec.create () in
  let line = ref 1 in
  let error msg = Error (Printf.sprintf "line %d: %s" !line msg) in
  let rec loop i =
    if i >= n then Ok (Vec.to_array tokens)
    else
      let ch = text.[i] in
      if ch = '\n' then begin
        incr line;
        loop (i + 1)
      end
      else if ch = ' ' || ch = '\t' || ch = '\r' then loop (i + 1)
      else if ch = '/' && i + 1 < n && text.[i + 1] = '/' then begin
        let rec skip j = if j < n && text.[j] <> '\n' then skip (j + 1) else j in
        loop (skip i)
      end
      else if ch = '/' && i + 1 < n && text.[i + 1] = '*' then begin
        let rec skip j =
          if j + 1 >= n then n
          else if text.[j] = '*' && text.[j + 1] = '/' then j + 2
          else begin
            if text.[j] = '\n' then incr line;
            skip (j + 1)
          end
        in
        loop (skip (i + 2))
      end
      else if ch = '1' && i + 3 < n && text.[i + 1] = '\'' && (text.[i + 2] = 'b' || text.[i + 2] = 'B')
      then begin
        match text.[i + 3] with
        | '0' ->
            ignore (Vec.push tokens (!line, Const false));
            loop (i + 4)
        | '1' ->
            ignore (Vec.push tokens (!line, Const true));
            loop (i + 4)
        | _ -> error "bad constant literal"
      end
      else if is_ident_char ch then begin
        let rec stop j = if j < n && is_ident_char text.[j] then stop (j + 1) else j in
        let j = stop i in
        ignore (Vec.push tokens (!line, Ident (String.sub text i (j - i))));
        loop j
      end
      else
        match ch with
        | '(' | ')' | ',' | ';' | '=' ->
            ignore (Vec.push tokens (!line, Punct ch));
            loop (i + 1)
        | '~' | '&' | '|' | '^' ->
            ignore (Vec.push tokens (!line, Op ch));
            loop (i + 1)
        | _ -> error (Printf.sprintf "unexpected character %C" ch)
  in
  loop 0

(* ------------------------------------------------------------------ *)
(* Statements                                                         *)
(* ------------------------------------------------------------------ *)

(* Expression AST for [assign] right-hand sides. *)
type expr =
  | E_sig of string
  | E_const of bool
  | E_not of expr
  | E_bin of Gate.kind * expr * expr

type stmt =
  | S_ports of [ `Input | `Output | `Wire ] * string list
  | S_gate of Gate.kind * string * string list  (* output, inputs *)
  | S_dff of string * string                    (* q, d *)
  | S_assign of string * expr

exception Parse_error of string

let parse_tokens tokens =
  let pos = ref 0 in
  let len = Array.length tokens in
  let peek () = if !pos < len then Some (snd tokens.(!pos)) else None in
  let here () = if !pos < len then fst tokens.(!pos) else -1 in
  let fail msg = raise (Parse_error (Printf.sprintf "line %d: %s" (here ()) msg)) in
  let next () =
    if !pos >= len then fail "unexpected end of input"
    else begin
      let t = snd tokens.(!pos) in
      incr pos;
      t
    end
  in
  let expect_punct ch =
    match next () with
    | Punct c when c = ch -> ()
    | _ -> fail (Printf.sprintf "expected %C" ch)
  in
  let ident () =
    match next () with Ident s -> s | _ -> fail "expected an identifier"
  in
  let ident_list stop =
    let rec loop acc =
      let id = ident () in
      match next () with
      | Punct ',' -> loop (id :: acc)
      | Punct c when c = stop -> List.rev (id :: acc)
      | _ -> fail "expected ',' in list"
    in
    loop []
  in
  (* Expression grammar: or-expr := xor-expr ('|' xor-expr)*;
     xor-expr := and-expr ('^' and-expr)*;
     and-expr := unary ('&' unary)*;
     unary := '~' unary | '(' or-expr ')' | ident | const. *)
  let rec parse_or () =
    let rec loop lhs =
      match peek () with
      | Some (Op '|') ->
          ignore (next ());
          loop (E_bin (Gate.Or, lhs, parse_xor ()))
      | _ -> lhs
    in
    loop (parse_xor ())
  and parse_xor () =
    let rec loop lhs =
      match peek () with
      | Some (Op '^') ->
          ignore (next ());
          loop (E_bin (Gate.Xor, lhs, parse_and ()))
      | _ -> lhs
    in
    loop (parse_and ())
  and parse_and () =
    let rec loop lhs =
      match peek () with
      | Some (Op '&') ->
          ignore (next ());
          loop (E_bin (Gate.And, lhs, parse_unary ()))
      | _ -> lhs
    in
    loop (parse_unary ())
  and parse_unary () =
    match next () with
    | Op '~' -> E_not (parse_unary ())
    | Punct '(' ->
        let e = parse_or () in
        expect_punct ')';
        e
    | Ident s -> E_sig s
    | Const v -> E_const v
    | _ -> fail "expected an expression"
  in
  let stmts = Vec.create () in
  let module_name = ref "verilog" in
  (* module header *)
  (match next () with
  | Ident "module" -> ()
  | _ -> fail "expected 'module'");
  module_name := ident ();
  (match peek () with
  | Some (Punct '(') ->
      ignore (next ());
      (* The port list repeats the input/output declarations; skip it. *)
      (match peek () with
      | Some (Punct ')') -> ignore (next ())
      | _ -> ignore (ident_list ')'));
      expect_punct ';'
  | Some (Punct ';') -> ignore (next ())
  | _ -> fail "expected port list or ';'");
  let rec body () =
    match next () with
    | Ident "endmodule" -> ()
    | Ident "input" ->
        ignore (Vec.push stmts (S_ports (`Input, ident_list ';')));
        body ()
    | Ident "output" ->
        ignore (Vec.push stmts (S_ports (`Output, ident_list ';')));
        body ()
    | Ident "wire" ->
        ignore (Vec.push stmts (S_ports (`Wire, ident_list ';')));
        body ()
    | Ident "assign" ->
        let lhs = ident () in
        expect_punct '=';
        let e = parse_or () in
        expect_punct ';';
        ignore (Vec.push stmts (S_assign (lhs, e)));
        body ()
    | Ident ("dff" | "DFF" | "dff_1" | "FD1") ->
        (* Optional instance name, then the port list. *)
        (match peek () with
        | Some (Ident _) -> ignore (next ())
        | _ -> ());
        expect_punct '(';
        let ports = ident_list ')' in
        expect_punct ';';
        (match ports with
        | [ q; d ] -> ignore (Vec.push stmts (S_dff (q, d)))
        | [ _clk; q; d ] -> ignore (Vec.push stmts (S_dff (q, d)))
        | _ -> fail "dff takes (Q, D) or (CK, Q, D)");
        body ()
    | Ident prim -> (
        match Gate.of_string prim with
        | Some kind when Gate.is_combinational kind ->
            (match peek () with
            | Some (Ident _) -> ignore (next ())
            | _ -> ());
            expect_punct '(';
            let ports = ident_list ')' in
            expect_punct ';';
            (match ports with
            | out :: ins when ins <> [] ->
                ignore (Vec.push stmts (S_gate (kind, out, ins)))
            | _ -> fail (prim ^ " needs an output and at least one input"));
            body ()
        | _ -> fail ("unsupported construct: " ^ prim))
    | _ -> fail "unexpected token"
  in
  body ();
  (!module_name, Vec.to_array stmts)

(* ------------------------------------------------------------------ *)
(* Elaboration                                                        *)
(* ------------------------------------------------------------------ *)

type decl =
  | D_input
  | D_gate of Gate.kind * string list
  | D_dff of string
  | D_assign of expr

let build (module_name, stmts) =
  let decls = Hashtbl.create 256 in
  let order = Vec.create () in
  let outputs = Vec.create () in
  let fail msg = raise (Parse_error msg) in
  let declare name d =
    if Hashtbl.mem decls name then fail ("duplicate driver for " ^ name)
    else begin
      Hashtbl.add decls name d;
      ignore (Vec.push order name)
    end
  in
  Array.iter
    (function
      | S_ports (`Input, names) -> List.iter (fun n -> declare n D_input) names
      | S_ports (`Output, names) ->
          List.iter (fun n -> ignore (Vec.push outputs n)) names
      | S_ports (`Wire, _) -> () (* wires exist through their drivers *)
      | S_gate (kind, out, ins) -> declare out (D_gate (kind, ins))
      | S_dff (q, d) -> declare q (D_dff d)
      | S_assign (lhs, e) -> declare lhs (D_assign e))
    stmts;
  let b = B.create ~name:module_name () in
  let prefix =
    let clashes p =
      Vec.fold_left
        (fun acc name -> acc || String.starts_with ~prefix:p name)
        false order
    in
    let rec search p = if clashes p then search ("$" ^ p) else p in
    search "$v"
  in
  let counter = ref 0 in
  let fresh () =
    let name = Printf.sprintf "%s%d" prefix !counter in
    incr counter;
    name
  in
  let ids = Hashtbl.create 256 in
  let visiting = Hashtbl.create 16 in
  let rec resolve name =
    match Hashtbl.find_opt ids name with
    | Some id -> id
    | None -> (
        if Hashtbl.mem visiting name then
          fail ("combinational cycle at " ^ name);
        match Hashtbl.find_opt decls name with
        | None -> fail ("undriven signal: " ^ name)
        | Some d ->
            let id =
              match d with
              | D_input -> B.input b name
              | D_dff _ -> B.dff_placeholder b name
              | D_gate (kind, ins) ->
                  Hashtbl.replace visiting name ();
                  let in_ids = List.map resolve ins in
                  Hashtbl.remove visiting name;
                  B.gate b ~name kind (Array.of_list in_ids)
              | D_assign e ->
                  Hashtbl.replace visiting name ();
                  let id = elaborate_expr ~name e in
                  Hashtbl.remove visiting name;
                  id
            in
            Hashtbl.replace ids name id;
            id)
  and elaborate_expr ?name e =
    (* Build anonymous subexpressions; the top node carries [name]. *)
    let mk kind ins =
      match name with
      | Some n -> B.gate b ~name:n kind ins
      | None -> B.gate b ~name:(fresh ()) kind ins
    in
    match e with
    | E_sig s -> (
        let id = resolve s in
        match name with Some n -> B.gate b ~name:n Gate.Buf [| id |] | None -> id)
    | E_const v -> mk (if v then Gate.Const1 else Gate.Const0) [||]
    | E_not e1 -> mk Gate.Not [| elaborate_expr e1 |]
    | E_bin (kind, e1, e2) ->
        let a = elaborate_expr e1 in
        let c = elaborate_expr e2 in
        mk kind [| a; c |]
  in
  Vec.iter (fun name -> ignore (resolve name)) order;
  Vec.iter
    (fun name ->
      match Hashtbl.find_opt decls name with
      | Some (D_dff d) -> B.connect_dff b (Hashtbl.find ids name) (resolve d)
      | _ -> ())
    order;
  Vec.iter
    (fun name ->
      match Hashtbl.find_opt ids name with
      | Some id -> B.mark_output b id
      | None -> fail ("undriven output port: " ^ name))
    outputs;
  B.finish b

let parse text =
  match tokenize text with
  | Error msg -> Error msg
  | Ok tokens -> (
      try Ok (build (parse_tokens tokens)) with
      | Parse_error msg -> Error msg
      | Invalid_argument msg -> Error msg)

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
  let ports =
    Array.to_list (Array.map name_of c.Circuit.inputs)
    @ Array.to_list (Array.map name_of c.Circuit.outputs)
  in
  Buffer.add_string buf
    (Printf.sprintf "module %s (%s);\n" c.Circuit.name (String.concat ", " ports));
  let decl_line kw names =
    if names <> [] then
      Buffer.add_string buf
        (Printf.sprintf "  %s %s;\n" kw (String.concat ", " names))
  in
  decl_line "input" (Array.to_list (Array.map name_of c.Circuit.inputs));
  decl_line "output" (Array.to_list (Array.map name_of c.Circuit.outputs));
  let is_output = Array.make (Circuit.num_nodes c) false in
  Array.iter (fun o -> is_output.(o) <- true) c.Circuit.outputs;
  let wires = ref [] in
  for i = Circuit.num_nodes c - 1 downto 0 do
    let nd = Circuit.node c i in
    if not (Gate.equal nd.Circuit.kind Gate.Input) && not is_output.(i) then
      wires := nd.Circuit.name :: !wires
  done;
  decl_line "wire" !wires;
  let order = Circuit.topological_order c in
  let instance = ref 0 in
  let emit i =
    let nd = Circuit.node c i in
    let args =
      nd.Circuit.name
      :: (Array.to_list nd.Circuit.fanins |> List.map name_of)
    in
    let prim =
      match nd.Circuit.kind with
      | Gate.Input | Gate.Dff -> None
      | Gate.Const0 ->
          Buffer.add_string buf
            (Printf.sprintf "  assign %s = 1'b0;\n" nd.Circuit.name);
          None
      | Gate.Const1 ->
          Buffer.add_string buf
            (Printf.sprintf "  assign %s = 1'b1;\n" nd.Circuit.name);
          None
      | k -> Some (String.lowercase_ascii (Gate.to_string k))
    in
    match prim with
    | None -> ()
    | Some prim ->
        incr instance;
        Buffer.add_string buf
          (Printf.sprintf "  %s g%d (%s);\n" prim !instance
             (String.concat ", " args))
  in
  Array.iter
    (fun i ->
      if not (Gate.equal (Circuit.node c i).Circuit.kind Gate.Dff) then emit i)
    order;
  Array.iter
    (fun i ->
      let nd = Circuit.node c i in
      if Gate.equal nd.Circuit.kind Gate.Dff then begin
        incr instance;
        Buffer.add_string buf
          (Printf.sprintf "  dff g%d (%s, %s);\n" !instance nd.Circuit.name
             (name_of nd.Circuit.fanins.(0)))
      end)
    order;
  Buffer.add_string buf "endmodule\n";
  Buffer.contents buf

let write_file path c =
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (to_string c))
