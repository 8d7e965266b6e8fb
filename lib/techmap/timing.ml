type delay_model = {
  clb_delay : float;
  local_net_delay : float;
  board_net_delay : float;
}

let default_model =
  { clb_delay = 1.0; local_net_delay = 0.2; board_net_delay = 8.0 }

type report = {
  critical_delay : float;
  critical_crossings : int;
  critical_path : int list;
  arrival : float array;
}

let analyze ?(model = default_model) ~crossing (m : Mapped.t) =
  let net_delay n =
    if crossing n then model.board_net_delay else model.local_net_delay
  in
  let arrival = Array.make m.Mapped.num_nets 0.0 in
  let pred = Array.make m.Mapped.num_nets (-1) in
  (* worst predecessor net *)
  (* Evaluate combinational outputs in dependency order. *)
  let plan =
    match Mapped.comb_plan m with
    | Some plan -> plan
    | None -> invalid_arg "Timing.analyze: combinational cycle"
  in
  let input_arrival clb (out : Mapped.output) =
    (* Worst (arrival + wire delay) over the pins this output reads. *)
    Array.fold_left
      (fun (best, best_net) pin ->
        let n = clb.Mapped.inputs.(pin) in
        let t = arrival.(n) +. net_delay n in
        if t > best then (t, n) else (best, best_net))
      (0.0, -1) out.Mapped.pins
  in
  Array.iter
    (fun (ci, oi) ->
      let clb = m.Mapped.clbs.(ci) in
      let out = clb.Mapped.outputs.(oi) in
      let t, from = input_arrival clb out in
      arrival.(out.Mapped.net) <- t +. model.clb_delay;
      pred.(out.Mapped.net) <- from)
    plan;
  (* Path endpoints: chip output pads, and flip-flop data lookups (the
     capture happens inside the CLB, after the input wire and the LUT). *)
  let best = ref (0.0, -1, -1) in
  (* delay, endpoint net, pred net *)
  let consider t endpoint from =
    let b, _, _ = !best in
    if t > b then best := (t, endpoint, from)
  in
  Array.iter
    (fun n -> consider (arrival.(n) +. net_delay n) n pred.(n))
    m.Mapped.po_nets;
  Array.iter
    (fun clb ->
      Array.iter
        (fun (out : Mapped.output) ->
          if out.Mapped.registered then begin
            let t, from = input_arrival clb out in
            consider (t +. model.clb_delay) out.Mapped.net from
          end)
        clb.Mapped.outputs)
    m.Mapped.clbs;
  let delay, endpoint, from = !best in
  (* Reconstruct one critical path through the predecessor chain. *)
  let rec walk acc n = if n < 0 then acc else walk (n :: acc) pred.(n) in
  let path =
    if endpoint < 0 then []
    else
      let upstream = if from >= 0 then walk [ from ] pred.(from) else [] in
      upstream @ [ endpoint ]
  in
  let crossings = List.length (List.filter crossing path) in
  {
    critical_delay = delay;
    critical_crossings = crossings;
    critical_path = path;
    arrival;
  }
