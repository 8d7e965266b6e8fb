(* The parser scans the text in place: no line list and no per-line
   substrings. Only signal names become strings, each distinct name once,
   and statements are recorded in flat int arrays sized by a line count.
   It allocates the circuit it returns plus O(lines + names) scratch. *)

exception Parse_error of string

let fail lineno msg =
  raise (Parse_error (Printf.sprintf "line %d: %s" lineno msg))

(* [String.trim]'s whitespace. *)
let is_space = function ' ' | '\012' | '\n' | '\r' | '\t' -> true | _ -> false

let is_ident_char ch =
  (ch >= 'a' && ch <= 'z')
  || (ch >= 'A' && ch <= 'Z')
  || (ch >= '0' && ch <= '9')
  || ch = '_' || ch = '.' || ch = '[' || ch = ']' || ch = '$'

(* Ranges are half-open [s, e) into the text. *)

(* The first index in [s, e) holding [ch], or [e]. *)
let rec find_char text ch s e =
  if s >= e || String.unsafe_get text s = ch then s
  else find_char text ch (s + 1) e

(* [String.trim] of a range: [skip_space] gives its start, [back_space] its
   end. *)
let rec skip_space text s e =
  if s < e && is_space (String.unsafe_get text s) then skip_space text (s + 1) e
  else s

let rec back_space text s e =
  if e > s && is_space (String.unsafe_get text (e - 1)) then
    back_space text s (e - 1)
  else e

let rec all_ident text s e =
  s >= e
  || (is_ident_char (String.unsafe_get text s) && all_ident text (s + 1) e)

let is_ident text s e = s < e && all_ident text s e

(* The range, upper-cased, equals [word]. *)
let rec upper_equal_from text s word i =
  i = String.length word
  || Char.uppercase_ascii (String.unsafe_get text (s + i))
     = String.unsafe_get word i
     && upper_equal_from text s word (i + 1)

let upper_equal text s e word =
  e - s = String.length word && upper_equal_from text s word 0

let sub text s e = String.sub text s (e - s)

(* Interned signal names: an open-addressing table of name ids hashed and
   compared over the text's own bytes, so a lookup copies nothing and
   each distinct name is copied out once. *)
type names = {
  text : string;
  mutable slots : int array;  (* power-of-two size; 0 = empty, else id + 1 *)
  mutable strings : string array;  (* id -> name; the first [count] are live *)
  mutable count : int;
}

let rec hash_from str s e acc =
  if s >= e then acc lxor (acc lsr 17)
  else
    hash_from str (s + 1) e
      (((acc * 31) + Char.code (String.unsafe_get str s)) land max_int)

let hash str s e = hash_from str s e 0

let rec bytes_equal name text s i =
  i = String.length name
  || String.unsafe_get name i = String.unsafe_get text (s + i)
     && bytes_equal name text s (i + 1)

let create_names text capacity =
  let slots = ref 16 in
  while !slots < 2 * capacity do
    slots := 2 * !slots
  done;
  {
    text;
    slots = Array.make !slots 0;
    strings = Array.make (max 16 capacity) "";
    count = 0;
  }

(* The slot where [str.[s..e)] lives, or the empty slot it would take. *)
let rec probe slots strings str s e i =
  let v = slots.(i) in
  if v = 0 then i
  else
    let name = strings.(v - 1) in
    if String.length name = e - s && bytes_equal name str s 0 then i
    else probe slots strings str s e ((i + 1) land (Array.length slots - 1))

let grow_slots t =
  let slots = Array.make (2 * Array.length t.slots) 0 in
  let mask = Array.length slots - 1 in
  for id = 0 to t.count - 1 do
    let name = t.strings.(id) in
    let i =
      probe slots t.strings name 0 (String.length name)
        (hash name 0 (String.length name) land mask)
    in
    slots.(i) <- id + 1
  done;
  t.slots <- slots

let intern t s e =
  let i =
    probe t.slots t.strings t.text s e
      (hash t.text s e land (Array.length t.slots - 1))
  in
  let v = t.slots.(i) in
  if v > 0 then v - 1
  else begin
    let id = t.count in
    if id = Array.length t.strings then begin
      let strings = Array.make (2 * id) "" in
      Array.blit t.strings 0 strings 0 id;
      t.strings <- strings
    end;
    t.strings.(id) <- sub t.text s e;
    t.slots.(i) <- id + 1;
    t.count <- id + 1;
    if 2 * t.count > Array.length t.slots then grow_slots t;
    id
  end

(* Parsed statements, before name resolution, in line order. Statement
   [i] sits on line [line.(i)] and names [name.(i)] (the target of an
   assignment, the argument of INPUT or OUTPUT); its arguments are
   [args.(arg_start.(i) .. arg_start.(i+1) - 1)]. An OUTPUT statement has
   [output] set; INPUT is recorded as a declaration of kind [Input]. *)
type stmts = {
  mutable n : int;
  line : int array;
  name : int array;
  kind : Gate.kind array;
  output : Bytes.t;
  arg_start : int array;
  args : int array;
  mutable n_args : int;
}

let is_output st i = Bytes.unsafe_get st.output i = '\001'

let push_stmt st lineno name kind ~output =
  let i = st.n in
  st.line.(i) <- lineno;
  st.name.(i) <- name;
  st.kind.(i) <- kind;
  Bytes.set st.output i (if output then '\001' else '\000');
  st.arg_start.(i + 1) <- st.n_args;
  st.n <- i + 1

(* The arguments of a call are the comma-separated pieces of its inner
   range [s, e), trimmed, empty ones dropped. *)

(* End of the piece starting at [s] (the next comma, or [e]). *)
let piece_end text s e = find_char text ',' s e

(* Number of non-empty pieces of [s, e); the first non-identifier one
   makes it [-1] when [check] is set. *)
let rec count_pieces text ~check s e acc =
  let q = piece_end text s e in
  let ps = skip_space text s q in
  let pe = back_space text ps q in
  let acc =
    if ps = pe then acc
    else if check && not (is_ident text ps pe) then -1
    else acc + 1
  in
  if acc < 0 || q >= e then acc else count_pieces text ~check (q + 1) e acc

let rec intern_pieces st names text s e =
  let q = piece_end text s e in
  let ps = skip_space text s q in
  let pe = back_space text ps q in
  if ps < pe then begin
    st.args.(st.n_args) <- intern names ps pe;
    st.n_args <- st.n_args + 1
  end;
  if q < e then intern_pieces st names text (q + 1) e

(* A call [head(args)] over the trimmed range [s, e): the position of its
   '(' (the range's last character is its ')'). *)
let call_paren text lineno s e =
  let lp = find_char text '(' s e in
  if lp = e then fail lineno "expected '('";
  if String.unsafe_get text (e - 1) <> ')' then fail lineno "expected ')'";
  lp

(* One line, [s, e) without its newline. *)
let parse_line st names text lineno s e =
  let e = find_char text '#' s e in
  let s = skip_space text s e in
  let e = back_space text s e in
  if s < e then begin
    let eq = find_char text '=' s e in
    if eq < e then begin
      let ts = skip_space text s eq in
      let te = back_space text ts eq in
      if not (is_ident text ts te) then
        fail lineno ("bad signal name: " ^ sub text ts te);
      let rs = skip_space text (eq + 1) e in
      let re = back_space text rs e in
      let lp = call_paren text lineno rs re in
      if count_pieces text ~check:true (lp + 1) (re - 1) 0 < 0 then
        fail lineno "bad argument name";
      let hs = skip_space text rs lp in
      let he = back_space text hs lp in
      match Gate.of_substring text ~pos:hs ~len:(he - hs) with
      | None -> fail lineno ("unknown gate type: " ^ sub text hs he)
      | Some kind ->
          let target = intern names ts te in
          intern_pieces st names text (lp + 1) (re - 1);
          push_stmt st lineno target kind ~output:false
    end
    else begin
      let lp = call_paren text lineno s e in
      let hs = skip_space text s lp in
      let he = back_space text hs lp in
      let input = upper_equal text hs he "INPUT" in
      if not (input || upper_equal text hs he "OUTPUT") then
        fail lineno ("unknown statement: " ^ sub text hs he);
      if count_pieces text ~check:false (lp + 1) (e - 1) 0 <> 1 then
        fail lineno "INPUT/OUTPUT take one argument";
      (* The argument is not checked: any non-empty piece names a signal.
         It stays in [args], where nothing reads it. *)
      intern_pieces st names text (lp + 1) (e - 1);
      push_stmt st lineno st.args.(st.n_args - 1) Gate.Input
        ~output:(not input)
    end
  end

(* Every line in order; the first bad one raises. Lines are split at '\n'
   only, so a text ending in a newline has a final empty line. *)
let scan st names text =
  let len = String.length text in
  let rec line s lineno =
    let e = find_char text '\n' s len in
    parse_line st names text lineno s e;
    if e < len then line (e + 1) (lineno + 1)
  in
  line 0 1

(* Name resolution is {!Elaborate.run}'s: signals may be used before
   their defining line, and a flip-flop's D cone may read its own Q. *)
let build st names =
  let nm id = names.strings.(id) in
  Elaborate.run
    (Circuit.Builder.create ~name:"bench" ~size:names.count ())
    {
      statements = st.n;
      signal = (fun i -> st.name.(i));
      output = is_output st;
      kind = (fun i -> st.kind.(i));
      line = (fun i -> st.line.(i));
      arity = (fun i -> st.arg_start.(i + 1) - st.arg_start.(i));
      fanin = (fun i j -> st.args.(st.arg_start.(i) + j));
      signals = names.count;
      name = nm;
    }
  |> Result.map_error (Elaborate.error_to_string nm)

let parse text =
  (* Upper bounds from one pass: a statement per line, and an argument
     per line or comma. *)
  let lines = ref 1 and commas = ref 0 in
  for i = 0 to String.length text - 1 do
    match String.unsafe_get text i with
    | '\n' -> incr lines
    | ',' -> incr commas
    | _ -> ()
  done;
  let lines = !lines in
  let st =
    {
      n = 0;
      line = Array.make lines 0;
      name = Array.make lines 0;
      kind = Array.make lines Gate.Input;
      output = Bytes.make lines '\000';
      arg_start = Array.make (lines + 1) 0;
      args = Array.make (lines + !commas) 0;
      n_args = 0;
    }
  in
  let names = create_names text lines in
  match
    scan st names text;
    build st names
  with
  | result -> result
  | exception Parse_error msg -> Error msg

let to_string c =
  let buf = Buffer.create 4096 in
  let name i = (Circuit.node c i).Circuit.name in
  Buffer.add_string buf (Printf.sprintf "# %s\n" c.Circuit.name);
  let declare keyword i =
    Buffer.add_string buf keyword;
    Buffer.add_char buf '(';
    Buffer.add_string buf (name i);
    Buffer.add_string buf ")\n"
  in
  Array.iter (declare "INPUT") c.Circuit.inputs;
  Array.iter (declare "OUTPUT") c.Circuit.outputs;
  let emit i =
    let nd = Circuit.node c i in
    match nd.Circuit.kind with
    | Gate.Input -> ()
    | kind ->
        Buffer.add_string buf nd.Circuit.name;
        Buffer.add_string buf " = ";
        Buffer.add_string buf (Gate.to_string kind);
        Buffer.add_char buf '(';
        Array.iteri
          (fun p f ->
            if p > 0 then Buffer.add_string buf ", ";
            Buffer.add_string buf (name f))
          nd.Circuit.fanins;
        Buffer.add_string buf ")\n"
  in
  let order = Circuit.topological_order c in
  (* Topological order lists DFFs among sources; emit them last for
     readability. *)
  Array.iter
    (fun i ->
      if not (Gate.equal (Circuit.node c i).Circuit.kind Gate.Dff) then emit i)
    order;
  Array.iter
    (fun i ->
      if Gate.equal (Circuit.node c i).Circuit.kind Gate.Dff then emit i)
    order;
  Buffer.contents buf

let write_file path c =
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (to_string c))
