(* The first stored topological order: Kahn's pass over successor arrays
   of its own, built from the fanins. [Circuit.Builder.finish] now reads
   the successors off the fanout arrays it builds anyway; the qcheck in
   test_netlist holds it to this definition, order and cycle report
   alike. The node record has [Circuit.node]'s fields, so a test can
   describe a circuit the builder refuses (a cyclic one). *)

open Netlist

type node = {
  id : int;
  name : string;
  kind : Gate.kind;
  fanins : int array;
}

(* Kahn's algorithm over combinational dependencies only: Input, Dff and
   constant nodes are sources; a Dff's fanin is not a dependency of its
   output. Returns [Error names_on_cycle] when a combinational cycle
   exists. Successors are one offset array and one flat array, filled
   from the last consumer down, so each node's combinational consumers
   are visited in descending id order, a gate reading it on two pins
   twice. That is the order of the first, list-based definition, which
   every stored order must keep. *)
let topo_or_cycle nodes =
  let n = Array.length nodes in
  let is_source nd =
    match nd.kind with
    | Gate.Input | Gate.Dff | Gate.Const0 | Gate.Const1 -> true
    | _ -> false
  in
  let indeg = Array.make n 0 in
  let start = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    let nd = nodes.(i) in
    if not (is_source nd) then begin
      let fanins = nd.fanins in
      indeg.(nd.id) <- Array.length fanins;
      for p = 0 to Array.length fanins - 1 do
        let f = fanins.(p) in
        start.(f + 1) <- start.(f + 1) + 1
      done
    end
  done;
  for f = 1 to n do
    start.(f) <- start.(f) + start.(f - 1)
  done;
  let succs = Array.make start.(n) 0 in
  let fill = Array.sub start 0 n in
  for i = n - 1 downto 0 do
    let nd = nodes.(i) in
    if not (is_source nd) then begin
      let fanins = nd.fanins in
      for p = 0 to Array.length fanins - 1 do
        let f = fanins.(p) in
        succs.(fill.(f)) <- nd.id;
        fill.(f) <- fill.(f) + 1
      done
    end
  done;
  let order = Array.make n (-1) in
  let tail = ref 0 in
  for i = 0 to n - 1 do
    let nd = nodes.(i) in
    if indeg.(nd.id) = 0 then begin
      order.(!tail) <- nd.id;
      incr tail
    end
  done;
  let head = ref 0 in
  while !head < !tail do
    let u = order.(!head) in
    incr head;
    for e = start.(u) to start.(u + 1) - 1 do
      let v = succs.(e) in
      indeg.(v) <- indeg.(v) - 1;
      if indeg.(v) = 0 then begin
        order.(!tail) <- v;
        incr tail
      end
    done
  done;
  if !tail = n then Ok order
  else begin
    let stuck = ref [] in
    Array.iter (fun nd -> if indeg.(nd.id) > 0 then stuck := nd.name :: !stuck) nodes;
    Error !stuck
  end
