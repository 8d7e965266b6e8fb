type kind =
  | Input
  | And
  | Nand
  | Or
  | Nor
  | Xor
  | Xnor
  | Not
  | Buf
  | Dff
  | Const0
  | Const1

let equal (a : kind) (b : kind) = a = b

let to_string = function
  | Input -> "INPUT"
  | And -> "AND"
  | Nand -> "NAND"
  | Or -> "OR"
  | Nor -> "NOR"
  | Xor -> "XOR"
  | Xnor -> "XNOR"
  | Not -> "NOT"
  | Buf -> "BUF"
  | Dff -> "DFF"
  | Const0 -> "CONST0"
  | Const1 -> "CONST1"

(* Every accepted spelling, upper case, with its (static) answer. *)
let spellings =
  [
    ("INPUT", Some Input);
    ("AND", Some And);
    ("NAND", Some Nand);
    ("OR", Some Or);
    ("NOR", Some Nor);
    ("XOR", Some Xor);
    ("XNOR", Some Xnor);
    ("NOT", Some Not);
    ("INV", Some Not);
    ("BUF", Some Buf);
    ("BUFF", Some Buf);
    ("DFF", Some Dff);
    ("CONST0", Some Const0);
    ("CONST1", Some Const1);
  ]

(* [s.[pos + i]], upper-cased, equals [word.[i]] for every [i >= from]. *)
let rec matches_from word s pos from =
  from = String.length word
  || Char.uppercase_ascii (String.unsafe_get s (pos + from))
     = String.unsafe_get word from
     && matches_from word s pos (from + 1)

let rec find_spelling s pos len = function
  | [] -> None
  | (word, kind) :: rest ->
      if String.length word = len && matches_from word s pos 0 then kind
      else find_spelling s pos len rest

let of_substring s ~pos ~len =
  if pos < 0 || len < 0 || pos > String.length s - len then
    invalid_arg "Gate.of_substring";
  find_spelling s pos len spellings

let of_string s = of_substring s ~pos:0 ~len:(String.length s)

let is_combinational = function
  | Input | Dff -> false
  | And | Nand | Or | Nor | Xor | Xnor | Not | Buf | Const0 | Const1 -> true

let arity_ok kind n =
  match kind with
  | Input | Const0 | Const1 -> n = 0
  | Not | Buf | Dff -> n = 1
  | And | Nand | Or | Nor | Xor | Xnor -> n >= 1

let eval kind ins =
  let n = Array.length ins in
  if not (arity_ok kind n) then
    invalid_arg ("Gate.eval: bad arity for " ^ to_string kind);
  let for_all v = Array.for_all (fun x -> x = v) ins in
  let exists v = Array.exists (fun x -> x = v) ins in
  let parity () = Array.fold_left (fun acc x -> if x then not acc else acc) false ins in
  match kind with
  | And -> for_all true
  | Nand -> not (for_all true)
  | Or -> exists true
  | Nor -> not (exists true)
  | Xor -> parity ()
  | Xnor -> not (parity ())
  | Not -> not ins.(0)
  | Buf -> ins.(0)
  | Const0 -> false
  | Const1 -> true
  | Input | Dff -> invalid_arg "Gate.eval: not a combinational gate"
