(* The arrays may be longer than the active range, [max_gain] and the
   first [num_items] items, when the bucket is reused for a smaller graph
   (see {!reset}); nothing past the active range is read. *)
type t = {
  mutable max_gain : int;
  mutable num_items : int;
  mutable heads : int array;   (* per gain slot: first item or -1 *)
  mutable next : int array;    (* per item *)
  mutable prev : int array;    (* per item; -(slot+2) when head of its list *)
  mutable gain_of : int array; (* per item; min_int when absent *)
  mutable top : int;           (* upper bound on the best occupied slot *)
  mutable count : int;
}

let absent = min_int

let create ~num_items ~max_gain =
  if max_gain < 0 then invalid_arg "Bucket.create: negative max_gain";
  {
    max_gain;
    num_items;
    heads = Array.make ((2 * max_gain) + 1) (-1);
    next = Array.make num_items (-1);
    prev = Array.make num_items (-1);
    gain_of = Array.make num_items absent;
    top = -1;
    count = 0;
  }

let clamp t g = if g > t.max_gain then t.max_gain else if g < -t.max_gain then -t.max_gain else g

let slot t g = clamp t g + t.max_gain

let mem t item = t.gain_of.(item) <> absent

let gain t item =
  let g = t.gain_of.(item) in
  if g = absent then raise Not_found else g

let cardinal t = t.count

let insert t item g =
  if mem t item then invalid_arg "Bucket.insert: item already present";
  let s = slot t g in
  let head = t.heads.(s) in
  t.next.(item) <- head;
  t.prev.(item) <- -(s + 2);
  if head >= 0 then t.prev.(head) <- item;
  t.heads.(s) <- item;
  t.gain_of.(item) <- g;
  if s > t.top then t.top <- s;
  t.count <- t.count + 1

let remove t item =
  if mem t item then begin
    let s = slot t t.gain_of.(item) in
    let nx = t.next.(item) and pv = t.prev.(item) in
    if pv < -1 then begin
      (* head of its list *)
      t.heads.(s) <- nx;
      if nx >= 0 then t.prev.(nx) <- -(s + 2)
    end
    else begin
      t.next.(pv) <- nx;
      if nx >= 0 then t.prev.(nx) <- pv
    end;
    t.gain_of.(item) <- absent;
    t.count <- t.count - 1
  end

let update t item g =
  (* Fast path: same clamped gain means the item stays in its slot, so
     skip the unlink/relink entirely and only refresh the stored
     (unclamped) gain. Beyond saving pointer churn this preserves the
     item's position within the slot, which keeps find_best's tie-breaking
     stable under rescores that do not change the gain. *)
  let old = t.gain_of.(item) in
  if old <> absent && slot t old = slot t g then t.gain_of.(item) <- g
  else begin
    remove t item;
    insert t item g
  end

let find_best t pred =
  (* Lower the top pointer past empty slots lazily. *)
  while t.top >= 0 && t.heads.(t.top) < 0 do
    t.top <- t.top - 1
  done;
  (* One loop over refs (no per-call or per-slot closures): slots from
     the top down, each list head to tail, so ties break LIFO. *)
  let s = ref t.top in
  let item = ref (if t.top >= 0 then t.heads.(t.top) else -1) in
  let found = ref (-1) in
  while !found < 0 && !s >= 0 do
    if !item < 0 then begin
      decr s;
      if !s >= 0 then item := t.heads.(!s)
    end
    else if pred !item then found := !item
    else item := t.next.(!item)
  done;
  !found

let clear t =
  Array.fill t.heads 0 ((2 * t.max_gain) + 1) (-1);
  Array.fill t.gain_of 0 t.num_items absent;
  t.top <- -1;
  t.count <- 0

let reset t ~num_items ~max_gain =
  if max_gain < 0 then invalid_arg "Bucket.reset: negative max_gain";
  let slots = (2 * max_gain) + 1 in
  if slots > Array.length t.heads then t.heads <- Array.make slots (-1);
  if num_items > Array.length t.gain_of then begin
    t.next <- Array.make num_items (-1);
    t.prev <- Array.make num_items (-1);
    t.gain_of <- Array.make num_items absent
  end;
  t.max_gain <- max_gain;
  t.num_items <- num_items;
  clear t
