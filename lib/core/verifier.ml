let check ?(objective = Fpga.Objective.paper) hg (result : Kway_types.result) =
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let num = Hypergraph.num_cells hg in
  (* 1. Output masks partition every cell's outputs. Alongside, the
     totals step 3 checks the summary against: eq. (1) sums the device
     prices in part order, as the summary does, and a cell is replicated
     once it appears in a second part. *)
  let seen = Array.make num Bitvec.empty in
  let appearances = Array.make num 0 and replicated = ref 0 in
  let total_cost = ref 0.0 and total_clbs = ref 0 and total_iobs = ref 0 in
  let overlap = ref None in
  List.iter
    (fun (p : Kway_types.part) ->
      total_cost := !total_cost +. p.device.Fpga.Device.price;
      total_clbs := !total_clbs + p.clbs;
      total_iobs := !total_iobs + p.iobs;
      List.iter
        (fun (c, m) ->
          if not (Bitvec.is_empty (Bitvec.inter seen.(c) m)) then
            overlap := Some c;
          seen.(c) <- Bitvec.union seen.(c) m;
          if appearances.(c) = 1 then incr replicated;
          appearances.(c) <- appearances.(c) + 1)
        p.members)
    result.parts;
  match !overlap with
  | Some c -> err "cell %d: an output is driven by two parts" c
  | None -> (
      let missing = ref None in
      for c = 0 to num - 1 do
        let full =
          Bitvec.full (Array.length (Hypergraph.cell hg c).Hypergraph.outputs)
        in
        if not (Bitvec.equal seen.(c) full) then missing := Some c
      done;
      match !missing with
      | Some c -> err "cell %d: some output is driven by no part" c
      | None -> (
          (* 2. Per-part areas and terminal counts match the members, and
             pass the objective's device test. Terminals recomputed from
             the original hypergraph: a net consumes an IOB of a part iff
             the part touches it and it also lives outside the part. *)
          let net_touchers = Array.make hg.Hypergraph.num_nets [] in
          List.iteri
            (fun j (p : Kway_types.part) ->
              List.iter
                (fun (c, m) ->
                  Array.iter
                    (fun n ->
                      match net_touchers.(n) with
                      | k :: _ when k = j -> ()
                      | l -> net_touchers.(n) <- j :: l)
                    (Hypergraph.connected_nets (Hypergraph.cell hg c)
                       ~out_mask:m))
                p.members)
            result.parts;
          let rec check_parts j = function
            | [] -> Ok ()
            | (p : Kway_types.part) :: rest ->
                let clbs =
                  List.fold_left
                    (fun acc (c, _) ->
                      acc + (Hypergraph.cell hg c).Hypergraph.area)
                    0 p.members
                in
                (* A member pays its whole demand vector wherever it
                   appears — the replication accounting the per-side
                   resource counters use. *)
                let demand = Array.make Hypergraph.demand_arity 0 in
                List.iter
                  (fun (c, _) ->
                    let d = (Hypergraph.cell hg c).Hypergraph.demand in
                    for a = 0 to Array.length d - 1 do
                      demand.(a) <- demand.(a) + d.(a)
                    done)
                  p.members;
                let iobs = ref 0 in
                Array.iteri
                  (fun n touchers ->
                    if List.mem j touchers then
                      let outside =
                        hg.Hypergraph.net_external.(n)
                        || List.exists (fun k -> k <> j) touchers
                      in
                      if outside then incr iobs)
                  net_touchers;
                if clbs <> p.clbs then
                  err "part %d: recorded %d CLBs, members sum to %d" j p.clbs
                    clbs
                else if !iobs <> p.iobs then
                  err "part %d: recorded %d IOBs, recomputed %d" j p.iobs !iobs
                else if Array.length p.used <> Hypergraph.demand_arity then
                  err "part %d: used vector has %d axes, expected %d" j
                    (Array.length p.used) Hypergraph.demand_arity
                else if p.used <> demand then
                  err "part %d: recorded resource vector %s, members sum to %s"
                    j
                    (String.concat ","
                       (Array.to_list (Array.map string_of_int p.used)))
                    (String.concat ","
                       (Array.to_list (Array.map string_of_int demand)))
                else if
                  not
                    (Fpga.Objective.fits ~relax_low:true objective p.device
                       ~demand ~iobs:!iobs)
                then
                  err "part %d: violates device %s" j p.device.Fpga.Device.name
                else check_parts (j + 1) rest
          in
          match check_parts 0 result.parts with
          | Error _ as e -> e
          | Ok () ->
              (* 3. The recorded summary and replication figures must agree
                 with what the members imply — a result cannot claim a cost
                 or interconnect it does not have. *)
              let r = result.summary in
              let parts = List.length result.parts in
              if r.Fpga.Cost.num_partitions <> parts then
                err "summary: %d partitions recorded, %d parts present"
                  r.Fpga.Cost.num_partitions parts
              else if r.Fpga.Cost.total_cost <> !total_cost then
                err "summary: recorded cost %.2f, devices sum to %.2f"
                  r.Fpga.Cost.total_cost !total_cost
              else if r.Fpga.Cost.total_clbs <> !total_clbs then
                err "summary: recorded %d CLBs, parts sum to %d"
                  r.Fpga.Cost.total_clbs !total_clbs
              else if r.Fpga.Cost.total_iobs <> !total_iobs then
                err "summary: recorded %d IOBs, parts sum to %d"
                  r.Fpga.Cost.total_iobs !total_iobs
              else if result.replicated_cells <> !replicated then
                err "recorded %d replicated cells, members imply %d"
                  result.replicated_cells !replicated
              else if result.total_cells <> num then
                err "recorded %d total cells, hypergraph has %d"
                  result.total_cells num
              else Ok ()))
