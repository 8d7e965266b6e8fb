type t = int

let max_width = Sys.int_size - 1

let empty = 0

let full w =
  if w < 0 || w > max_width then invalid_arg "Bitvec.full: bad width";
  if w = 0 then 0 else (1 lsl w) - 1

let singleton i = 1 lsl i
let mem i v = v land (1 lsl i) <> 0
let add i v = v lor (1 lsl i)
let remove i v = v land lnot (1 lsl i)
let union = ( lor )
let inter = ( land )
let diff a b = a land lnot b
let complement w v = full w land lnot v

let norm v =
  (* Branch-free popcount on the 62 relevant bits. *)
  let v = v - ((v lsr 1) land 0x5555555555555555) in
  let v = (v land 0x3333333333333333) + ((v lsr 2) land 0x3333333333333333) in
  let v = (v + (v lsr 4)) land 0x0F0F0F0F0F0F0F0F in
  (v * 0x0101010101010101) lsr 56

(* Both walk the set bits of [keep] in ascending order, the [r]-th of
   them standing for dense position [r]. *)
let compress keep v =
  let acc = ref 0 and rest = ref keep and r = ref 0 in
  while !rest <> 0 do
    let bit = !rest land - !rest in
    if v land bit <> 0 then acc := !acc lor (1 lsl !r);
    incr r;
    rest := !rest lxor bit
  done;
  !acc

let expand keep v =
  let acc = ref 0 and rest = ref keep and r = ref 0 in
  while !rest <> 0 do
    let bit = !rest land - !rest in
    if v land (1 lsl !r) <> 0 then acc := !acc lor bit;
    incr r;
    rest := !rest lxor bit
  done;
  !acc

let is_empty v = v = 0
let subset a b = a land lnot b = 0
let equal (a : t) (b : t) = a = b

let iter f v =
  let rest = ref v in
  while !rest <> 0 do
    let bit = !rest land - !rest in
    (* index of lowest set bit *)
    let rec index b i = if b = 1 then i else index (b lsr 1) (i + 1) in
    f (index bit 0);
    rest := !rest lxor bit
  done

let fold f v acc =
  let acc = ref acc in
  iter (fun i -> acc := f i !acc) v;
  !acc

let to_list v = List.rev (fold (fun i l -> i :: l) v [])
let of_list l = List.fold_left (fun v i -> add i v) empty l

let pp ~width fmt v =
  Format.pp_print_char fmt '[';
  for i = 0 to width - 1 do
    if i > 0 then Format.pp_print_char fmt ' ';
    Format.pp_print_char fmt (if mem i v then '1' else '0')
  done;
  Format.pp_print_char fmt ']'
