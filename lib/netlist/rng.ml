(* The state lives unboxed in 8 bytes: an [int64] record field boxes every
   update, and a draw that returns an [int] or a [bool] then allocates
   nothing. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_le t 0 s;
  t

let create seed = of_state (Int64.of_int seed)

let copy = Bytes.copy

(* SplitMix64 output function (Steele, Lea & Flood 2014). *)
let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline] next_int64 t =
  let s = Int64.add (Bytes.get_int64_le t 0) golden_gamma in
  Bytes.set_int64_le t 0 s;
  mix s

let split t = of_state (next_int64 t)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Keep 62 bits so the value fits OCaml's native int and stays
     non-negative; modulo bias is negligible for bounds << 2^62. *)
  let raw = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2) in
  raw mod bound

let int_in t lo hi =
  if hi < lo then invalid_arg "Rng.int_in: empty range";
  lo + int t (hi - lo + 1)

let bool t = Int64.logand (next_int64 t) 1L = 1L

let[@inline] unit_float t =
  Int64.to_float (Int64.shift_right_logical (next_int64 t) 11)
  /. 9007199254740992.0 (* 2^53 *)

let float t x = x *. unit_float t

(* [float t 1.0 < p] without boxing the float: [1.0 *. u] is [u]. *)
let chance t p = unit_float t < p

let pick t arr =
  if Array.length arr = 0 then invalid_arg "Rng.pick: empty array";
  arr.(int t (Array.length arr))

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let sample t n bound =
  if n < 0 || n > bound then invalid_arg "Rng.sample: need 0 <= n <= bound";
  (* Partial Fisher-Yates over an index table; O(bound) space, O(bound+n)
     time, which is fine at netlist scale. *)
  let table = Array.init bound (fun i -> i) in
  for i = 0 to n - 1 do
    let j = int_in t i (bound - 1) in
    let tmp = table.(i) in
    table.(i) <- table.(j);
    table.(j) <- tmp
  done;
  Array.sub table 0 n
