open Netlist

type output = {
  net : int;
  table : int;
  pins : int array;
  registered : bool;
}

type clb = {
  name : string;
  inputs : int array;
  outputs : output array;
}

type t = {
  clbs : clb array;
  num_nets : int;
  net_names : string array;
  pi_nets : int array;
  po_nets : int array;
  name : string;
}

let support_mask clb o =
  Array.fold_left
    (fun acc pin -> Bitvec.add pin acc)
    Bitvec.empty clb.outputs.(o).pins

let max_inputs = 5
let max_outputs = 2

let eval_output clb o net_value =
  let out = clb.outputs.(o) in
  let idx = ref 0 in
  Array.iteri
    (fun i pin -> if net_value clb.inputs.(pin) then idx := !idx lor (1 lsl i))
    out.pins;
  out.table land (1 lsl !idx) <> 0

let err fmt = Printf.ksprintf (fun s -> Error s) fmt

(* The CLB checks of [validate], in the order it applies them; each runs
   only once the checks before it have passed. *)
let distinct_inputs c =
  let ok = ref true in
  for a = 0 to Array.length c.inputs - 1 do
    for b = a + 1 to Array.length c.inputs - 1 do
      if c.inputs.(a) = c.inputs.(b) then ok := false
    done
  done;
  !ok

let pins_in_range c =
  let ok = ref true in
  for o = 0 to Array.length c.outputs - 1 do
    let pins = c.outputs.(o).pins in
    for p = 0 to Array.length pins - 1 do
      if pins.(p) < 0 || pins.(p) >= Array.length c.inputs then ok := false
    done
  done;
  !ok

let pins_distinct c =
  let ok = ref true in
  for o = 0 to Array.length c.outputs - 1 do
    let pins = c.outputs.(o).pins in
    let seen = ref Bitvec.empty in
    for p = 0 to Array.length pins - 1 do
      if Bitvec.mem pins.(p) !seen then ok := false;
      seen := Bitvec.add pins.(p) !seen
    done
  done;
  !ok

let used_pins c =
  let used = ref Bitvec.empty in
  for o = 0 to Array.length c.outputs - 1 do
    used := Bitvec.union !used (support_mask c o)
  done;
  !used

let validate t =
  let driver = Array.make t.num_nets (-1) in
  let rec check_clbs i =
    if i >= Array.length t.clbs then Ok ()
    else begin
      let c = t.clbs.(i) in
      let n_in = Array.length c.inputs in
      let n_out = Array.length c.outputs in
      if n_in > max_inputs then err "CLB %s: %d inputs" c.name n_in
      else if not (distinct_inputs c) then
        err "CLB %s: duplicate input nets" c.name
      else if n_out = 0 || n_out > max_outputs then
        err "CLB %s: %d outputs" c.name n_out
      else if not (pins_in_range c) then
        err "CLB %s: pin index out of range" c.name
      else if not (pins_distinct c) then
        err "CLB %s: duplicate pins in one output" c.name
      else if
        n_in > 0 && not (Bitvec.equal (used_pins c) (Bitvec.full n_in))
      then
        err "CLB %s: unused input pin" c.name
      else begin
        (* Every output claims its net; the last fault found is the one
           reported. *)
        let fault = ref None in
        for o = 0 to n_out - 1 do
          let net = c.outputs.(o).net in
          if net < 0 || net >= t.num_nets then fault := Some "net range"
          else if driver.(net) >= 0 then fault := Some "double driver"
          else driver.(net) <- i
        done;
        match !fault with
        | Some msg -> err "CLB %s: %s" c.name msg
        | None -> check_clbs (i + 1)
      end
    end
  in
  match check_clbs 0 with
  | Error _ as e -> e
  | Ok () ->
      (* A pad-driven net must have no CLB driver; the last such net is
         the one reported. *)
      let bad = ref (-1) in
      for k = 0 to Array.length t.pi_nets - 1 do
        let n = t.pi_nets.(k) in
        if driver.(n) >= 0 then bad := n else driver.(n) <- -2
      done;
      if !bad >= 0 then
        err "net %s driven by both a pad and a CLB" t.net_names.(!bad)
      else
        let rec check_driven n =
          if n >= t.num_nets then Ok ()
          else if driver.(n) = -1 then err "net %s has no driver" t.net_names.(n)
          else check_driven (n + 1)
        in
        check_driven 0

(* Topological order of combinational (clb, output) pairs; registered
   outputs and pads are sources. Returns None on a combinational cycle. *)
let comb_plan t =
  let pairs = Vec.create () in
  Array.iteri
    (fun ci c ->
      Array.iteri
        (fun oi o -> if not o.registered then ignore (Vec.push pairs (ci, oi)))
        c.outputs)
    t.clbs;
  let n = Vec.length pairs in
  (* Net -> producing comb pair (if any). *)
  let producer = Array.make t.num_nets (-1) in
  Vec.iteri
    (fun k (ci, oi) -> producer.(t.clbs.(ci).outputs.(oi).net) <- k)
    pairs;
  let indeg = Array.make n 0 in
  let succs = Array.make n [] in
  Vec.iteri
    (fun k (ci, oi) ->
      let c = t.clbs.(ci) in
      Array.iter
        (fun pin ->
          let p = producer.(c.inputs.(pin)) in
          if p >= 0 then begin
            indeg.(k) <- indeg.(k) + 1;
            succs.(p) <- k :: succs.(p)
          end)
        c.outputs.(oi).pins)
    pairs;
  let order = Array.make n (-1) in
  let head = ref 0 and tail = ref 0 in
  for k = 0 to n - 1 do
    if indeg.(k) = 0 then begin
      order.(!tail) <- k;
      incr tail
    end
  done;
  while !head < !tail do
    let u = order.(!head) in
    incr head;
    List.iter
      (fun v ->
        indeg.(v) <- indeg.(v) - 1;
        if indeg.(v) = 0 then begin
          order.(!tail) <- v;
          incr tail
        end)
      succs.(u)
  done;
  if !tail <> n then None
  else Some (Array.map (fun k -> Vec.get pairs k) order)

type stats = {
  clbs : int;
  iobs : int;
  dffs : int;
  nets : int;
  pins : int;
}

let stats (t : t) =
  let dffs =
    Array.fold_left
      (fun acc c ->
        acc
        + Array.fold_left
            (fun a o -> if o.registered then a + 1 else a)
            0 c.outputs)
      0 t.clbs
  in
  let clb_pins =
    Array.fold_left
      (fun acc c -> acc + Array.length c.inputs + Array.length c.outputs)
      0 t.clbs
  in
  {
    clbs = Array.length t.clbs;
    iobs = Array.length t.pi_nets + Array.length t.po_nets;
    dffs;
    nets = t.num_nets;
    pins = clb_pins + Array.length t.pi_nets + Array.length t.po_nets;
  }

let pp_stats fmt s =
  Format.fprintf fmt "%d CLBs, %d IOBs, %d DFF, %d nets, %d pins" s.clbs
    s.iobs s.dffs s.nets s.pins

type state = bool array
(* Indexed by net id; meaningful at registered-output nets. *)

let initial_state t = Array.make t.num_nets false

let step_with_plan t plan st pi =
  if Array.length pi <> Array.length t.pi_nets then
    invalid_arg "Mapped.step: wrong input vector length";
  let value = Array.make t.num_nets false in
  Array.iteri (fun k n -> value.(n) <- pi.(k)) t.pi_nets;
  Array.iter
    (fun c ->
      Array.iter
        (fun o -> if o.registered then value.(o.net) <- st.(o.net))
        c.outputs)
    t.clbs;
  Array.iter
    (fun (ci, oi) ->
      let c = t.clbs.(ci) in
      value.(c.outputs.(oi).net) <- eval_output c oi (fun n -> value.(n)))
    plan;
  let outs = Array.map (fun n -> value.(n)) t.po_nets in
  let st' = Array.copy st in
  Array.iter
    (fun c ->
      Array.iteri
        (fun oi o ->
          if o.registered then
            (* The FF captures the LUT value computed from current nets. *)
            st'.(o.net) <- eval_output c oi (fun n -> value.(n)))
        c.outputs)
    t.clbs;
  (outs, st')

let plan_exn t =
  match comb_plan t with
  | Some plan -> plan
  | None -> invalid_arg "Mapped.step: combinational cycle"

let step t st pi = step_with_plan t (plan_exn t) st pi

let run t vectors =
  let plan = plan_exn t in
  let st = ref (initial_state t) in
  Array.map
    (fun pi ->
      let outs, st' = step_with_plan t plan !st pi in
      st := st';
      outs)
    vectors

let equivalent ?(vectors = 64) ?(seed = 2024) circuit t =
  Array.length circuit.Circuit.inputs = Array.length t.pi_nets
  && Array.length circuit.Circuit.outputs = Array.length t.po_nets
  &&
  let rng = Rng.create seed in
  let vecs = Simulate.random_vectors rng circuit vectors in
  let expect = Simulate.run circuit vecs in
  let got = run t vecs in
  expect = got
