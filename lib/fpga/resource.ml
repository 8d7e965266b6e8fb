type t = int array

let arity = 5
let demand_arity = 4
let clb = 0
let ff = 1
let bram = 2
let dsp = 3
let io = 4
let names = [| "clb"; "ff"; "bram"; "dsp"; "io" |]

let axis_name a =
  if a < 0 || a >= arity then invalid_arg "Resource.axis_name: bad axis"
  else names.(a)

let axis_of_name name =
  let rec find a = if a >= arity then None
    else if String.equal names.(a) name then Some a
    else find (a + 1)
  in
  find 0

let zero () = Array.make arity 0

let make ?(ffs = 0) ?(brams = 0) ?(dsps = 0) ~clbs ~iobs () =
  [| clbs; ffs; brams; dsps; iobs |]

let get v a = if a < Array.length v then v.(a) else 0

let add_into dst src =
  for a = 0 to Array.length dst - 1 do
    dst.(a) <- dst.(a) + get src a
  done

