type 'a t = {
  mutable data : 'a array;
  mutable len : int;
}

let create () = { data = [||]; len = 0 }

let with_capacity n x = { data = Array.make n x; len = 0 }

let length v = v.len

let check v i name =
  if i < 0 || i >= v.len then invalid_arg ("Vec." ^ name ^ ": index out of bounds")

let get v i =
  check v i "get";
  v.data.(i)

let set v i x =
  check v i "set";
  v.data.(i) <- x

let grow v x =
  let cap = Array.length v.data in
  let cap' = if cap = 0 then 8 else 2 * cap in
  let data' = Array.make cap' x in
  Array.blit v.data 0 data' 0 v.len;
  v.data <- data'

let push v x =
  if v.len = Array.length v.data then grow v x;
  v.data.(v.len) <- x;
  v.len <- v.len + 1;
  v.len - 1

let iter f v =
  for i = 0 to v.len - 1 do
    f v.data.(i)
  done

let iteri f v =
  for i = 0 to v.len - 1 do
    f i v.data.(i)
  done

let fold_left f acc v =
  let acc = ref acc in
  for i = 0 to v.len - 1 do
    acc := f !acc v.data.(i)
  done;
  !acc

let to_array v = Array.sub v.data 0 v.len

let take v =
  let arr =
    if v.len = Array.length v.data then v.data else Array.sub v.data 0 v.len
  in
  v.data <- [||];
  v.len <- 0;
  arr

let of_array arr = { data = Array.copy arr; len = Array.length arr }

let exists p v =
  let rec loop i = i < v.len && (p v.data.(i) || loop (i + 1)) in
  loop 0
