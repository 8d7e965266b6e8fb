type 'a t = { key : 'a option Atomic.t Domain.DLS.key; fresh : unit -> 'a }

let make fresh =
  { key = Domain.DLS.new_key (fun () -> Atomic.make None); fresh }

let use t f =
  let cell = Domain.DLS.get t.key in
  let v =
    match Atomic.exchange cell None with Some v -> v | None -> t.fresh ()
  in
  let r = f v in
  Atomic.set cell (Some v);
  r
