type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let escape buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

(* One fixed float format: shortest %.12g form, forced to contain a '.' or
   an exponent so it reads back as a float. Non-finite values have no JSON
   number form; emit null. *)
let float_repr f =
  match Float.classify_float f with
  | FP_nan | FP_infinite -> "null"
  | _ ->
      let s = Printf.sprintf "%.12g" f in
      if String.exists (fun c -> c = '.' || c = 'e') s then s else s ^ ".0"

let rec emit buf indent j =
  let pad n = Buffer.add_string buf (String.make n ' ') in
  match j with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> Buffer.add_string buf (float_repr f)
  | String s -> escape buf s
  | List [] -> Buffer.add_string buf "[]"
  | List items ->
      Buffer.add_string buf "[\n";
      List.iteri
        (fun k item ->
          if k > 0 then Buffer.add_string buf ",\n";
          pad (indent + 2);
          emit buf (indent + 2) item)
        items;
      Buffer.add_char buf '\n';
      pad indent;
      Buffer.add_char buf ']'
  | Obj [] -> Buffer.add_string buf "{}"
  | Obj fields ->
      Buffer.add_string buf "{\n";
      List.iteri
        (fun k (key, v) ->
          if k > 0 then Buffer.add_string buf ",\n";
          pad (indent + 2);
          escape buf key;
          Buffer.add_string buf ": ";
          emit buf (indent + 2) v)
        fields;
      Buffer.add_char buf '\n';
      pad indent;
      Buffer.add_char buf '}'

let to_string j =
  let buf = Buffer.create 1024 in
  emit buf 0 j;
  Buffer.contents buf

(* Single-line rendering for JSON-lines streams (one document per line,
   no interior newlines). Same escaping and float format as [to_string]. *)
let rec emit_compact buf j =
  match j with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> Buffer.add_string buf (float_repr f)
  | String s -> escape buf s
  | List items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun k item ->
          if k > 0 then Buffer.add_char buf ',';
          emit_compact buf item)
        items;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun k (key, v) ->
          if k > 0 then Buffer.add_char buf ',';
          escape buf key;
          Buffer.add_char buf ':';
          emit_compact buf v)
        fields;
      Buffer.add_char buf '}'

let to_compact_string j =
  let buf = Buffer.create 256 in
  emit_compact buf j;
  Buffer.contents buf

let pp fmt j = Format.pp_print_string fmt (to_string j)

let write_file ~path j =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (to_string j);
      output_char oc '\n')

(* ------------------------------------------------------------------ *)
(* Parsing                                                            *)
(* ------------------------------------------------------------------ *)

exception Parse_error of int * string

let of_string text =
  let len = String.length text in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (!pos, msg)) in
  let peek () = if !pos < len then Some text.[!pos] else None in
  let advance () = Stdlib.incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect ch =
    match peek () with
    | Some c when c = ch -> advance ()
    | Some c -> fail (Printf.sprintf "expected '%c', found '%c'" ch c)
    | None -> fail (Printf.sprintf "expected '%c', found end of input" ch)
  in
  let literal word value =
    let n = String.length word in
    if !pos + n <= len && String.sub text !pos n = word then begin
      pos := !pos + n;
      value
    end
    else fail ("expected " ^ word)
  in
  let utf8_of_code buf u =
    (* RFC 3629 encoding of one scalar value (surrogates handled by the
       caller). *)
    if u < 0x80 then Buffer.add_char buf (Char.chr u)
    else if u < 0x800 then begin
      Buffer.add_char buf (Char.chr (0xC0 lor (u lsr 6)));
      Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
    end
    else if u < 0x10000 then begin
      Buffer.add_char buf (Char.chr (0xE0 lor (u lsr 12)));
      Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
    end
    else begin
      Buffer.add_char buf (Char.chr (0xF0 lor (u lsr 18)));
      Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 12) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
    end
  in
  let hex4 () =
    if !pos + 4 > len then fail "truncated \\u escape";
    let v = int_of_string ("0x" ^ String.sub text !pos 4) in
    pos := !pos + 4;
    v
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec loop () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
          advance ();
          match peek () with
          | None -> fail "unterminated escape"
          | Some c ->
              advance ();
              (match c with
              | '"' -> Buffer.add_char buf '"'
              | '\\' -> Buffer.add_char buf '\\'
              | '/' -> Buffer.add_char buf '/'
              | 'b' -> Buffer.add_char buf '\b'
              | 'f' -> Buffer.add_char buf '\012'
              | 'n' -> Buffer.add_char buf '\n'
              | 'r' -> Buffer.add_char buf '\r'
              | 't' -> Buffer.add_char buf '\t'
              | 'u' -> (
                  match hex4 () with
                  | exception _ -> fail "bad \\u escape"
                  | hi when hi >= 0xD800 && hi <= 0xDBFF ->
                      (* Surrogate pair. *)
                      if
                        !pos + 2 <= len
                        && text.[!pos] = '\\'
                        && text.[!pos + 1] = 'u'
                      then begin
                        pos := !pos + 2;
                        match hex4 () with
                        | exception _ -> fail "bad \\u escape"
                        | lo when lo >= 0xDC00 && lo <= 0xDFFF ->
                            utf8_of_code buf
                              (0x10000
                              + ((hi - 0xD800) lsl 10)
                              + (lo - 0xDC00))
                        | _ -> fail "unpaired surrogate"
                      end
                      else fail "unpaired surrogate"
                  | u when u >= 0xDC00 && u <= 0xDFFF ->
                      fail "unpaired surrogate"
                  | u -> utf8_of_code buf u)
              | c -> fail (Printf.sprintf "bad escape '\\%c'" c));
              loop ())
      | Some c when Char.code c < 0x20 -> fail "control character in string"
      | Some c ->
          advance ();
          Buffer.add_char buf c;
          loop ()
    in
    loop ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let is_num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < len && is_num_char text.[!pos] do
      advance ()
    done;
    let s = String.sub text start (!pos - start) in
    if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') s then
      match float_of_string_opt s with
      | Some f -> Float f
      | None -> fail ("bad number: " ^ s)
    else
      match int_of_string_opt s with
      | Some i -> Int i
      | None -> (
          (* Integer syntax too large for an int: fall back to float. *)
          match float_of_string_opt s with
          | Some f -> Float f
          | None -> fail ("bad number: " ^ s))
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some 'n' -> literal "null" Null
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some '"' -> String (parse_string ())
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else begin
          let items = ref [ parse_value () ] in
          let continue = ref true in
          while !continue do
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                items := parse_value () :: !items
            | Some ']' ->
                advance ();
                continue := false
            | _ -> fail "expected ',' or ']'"
          done;
          List (List.rev !items)
        end
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let field () =
            skip_ws ();
            let key = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            (key, v)
          in
          let fields = ref [ field () ] in
          let continue = ref true in
          while !continue do
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                fields := field () :: !fields
            | Some '}' ->
                advance ();
                continue := false
            | _ -> fail "expected ',' or '}'"
          done;
          Obj (List.rev !fields)
        end
    | Some c -> fail (Printf.sprintf "unexpected character '%c'" c)
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> len then fail "trailing garbage after document";
    v
  with
  | v -> Ok v
  | exception Parse_error (at, msg) ->
      Error (Printf.sprintf "JSON parse error at offset %d: %s" at msg)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_int = function Int i -> Some i | _ -> None
let to_float = function Float f -> Some f | Int i -> Some (float_of_int i) | _ -> None
let to_bool = function Bool b -> Some b | _ -> None
let to_str = function String s -> Some s | _ -> None

let field name conv json =
  match Option.bind (member name json) conv with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing or ill-typed field %S" name)

let opt_field name conv ~default json =
  match member name json with
  | None -> Ok default
  | Some v -> (
      match conv v with
      | Some v -> Ok v
      | None -> Error (Printf.sprintf "ill-typed field %S" name))
