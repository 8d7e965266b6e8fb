open Netlist

(* One future CLB output: the signal of [out_node], computed as [table]
   over [support_nodes], optionally through a flip-flop. *)
type slot = {
  out_node : int;
  support_nodes : int array;
  table : int;
  registered : bool;
}

let identity_table = 0b10 (* f(x) = x *)

let run ?(pair = true) ?(pair_disjoint = true) c cover =
  let num = Circuit.num_nodes c in
  let is_po = Array.make num false in
  Array.iter (fun o -> is_po.(o) <- true) c.Circuit.outputs;
  let lut_consumed = Array.make (Array.length cover.Cover.luts) false in
  let slots = Vec.create () in
  let const_needed = Array.make num false in
  let note_const f =
    match (Circuit.node c f).Circuit.kind with
    | Gate.Const0 | Gate.Const1 -> const_needed.(f) <- true
    | _ -> ()
  in
  (* Flip-flops first: fuse with their D-driver LUT when legal. *)
  for q = 0 to num - 1 do
    let nd = Circuit.node c q in
    if Gate.equal nd.Circuit.kind Gate.Dff then begin
      let d = nd.Circuit.fanins.(0) in
      let lut_idx =
        if Gate.is_combinational (Circuit.node c d).Circuit.kind then
          cover.Cover.lut_of_root.(d)
        else -1
      in
      let fusible =
        lut_idx >= 0
        && (not is_po.(d))
        && Array.length c.Circuit.fanouts.(d) = 1
      in
      if fusible then begin
        let lut = cover.Cover.luts.(lut_idx) in
        lut_consumed.(lut_idx) <- true;
        Array.iter note_const lut.Cover.support;
        ignore
          (Vec.push slots
             {
               out_node = q;
               support_nodes = lut.Cover.support;
               table = lut.Cover.table;
               registered = true;
             })
      end
      else begin
        note_const d;
        ignore
          (Vec.push slots
             {
               out_node = q;
               support_nodes = [| d |];
               table = identity_table;
               registered = true;
             })
      end
    end
  done;
  (* Remaining LUTs are plain combinational outputs. *)
  Array.iteri
    (fun idx lut ->
      if not lut_consumed.(idx) then begin
        Array.iter note_const lut.Cover.support;
        ignore
          (Vec.push slots
             {
               out_node = lut.Cover.root;
               support_nodes = lut.Cover.support;
               table = lut.Cover.table;
               registered = false;
             })
      end)
    cover.Cover.luts;
  (* Constants referenced as signals (support pins, PO drivers, FF data)
     get a zero-input generator CLB output. *)
  Array.iter
    (fun o ->
      match (Circuit.node c o).Circuit.kind with
      | Gate.Const0 | Gate.Const1 -> const_needed.(o) <- true
      | _ -> ())
    c.Circuit.outputs;
  for f = 0 to num - 1 do
    if const_needed.(f) then begin
      let table =
        match (Circuit.node c f).Circuit.kind with
        | Gate.Const1 -> 1
        | _ -> 0
      in
      ignore
        (Vec.push slots
           { out_node = f; support_nodes = [||]; table; registered = false })
    end
  done;
  (* Net numbering: primary inputs first, then one net per slot output. *)
  let net_of_node = Array.make num (-1) in
  let net_names = Vec.create () in
  let fresh_net node =
    if net_of_node.(node) < 0 then
      net_of_node.(node) <-
        Vec.push net_names (Circuit.node c node).Circuit.name
  in
  Array.iter fresh_net c.Circuit.inputs;
  Vec.iter (fun s -> fresh_net s.out_node) slots;
  let pi_nets = Array.map (fun i -> net_of_node.(i)) c.Circuit.inputs in
  let po_nets =
    Array.map
      (fun o ->
        if net_of_node.(o) < 0 then
          invalid_arg
            ("Pack.run: primary output "
            ^ (Circuit.node c o).Circuit.name
            ^ " has no mapped net");
        net_of_node.(o))
      c.Circuit.outputs
  in
  (* Pair slots into CLBs. Each slot's input nets, in pin order, once. *)
  let n_slots = Vec.length slots in
  let slot_nets =
    Array.init n_slots (fun i ->
        let nets =
          Array.map (fun f -> net_of_node.(f)) (Vec.get slots i).support_nodes
        in
        Array.iter
          (fun n -> if n < 0 then invalid_arg "Pack.run: unmapped support net")
          nets;
        nets)
  in
  let partner = Array.make n_slots (-1) in
  if pair then begin
    (* Sorted distinct input-net arrays per slot; shared count by merge. *)
    let sorted_nets =
      Array.map
        (fun nets ->
          let nets = Array.copy nets in
          Cover.insertion_sort nets;
          nets)
        slot_nets
    in
    let shared_count a b =
      let i = ref 0 and j = ref 0 and s = ref 0 in
      let na = Array.length a and nb = Array.length b in
      while !i < na && !j < nb do
        if a.(!i) = b.(!j) then begin
          incr s;
          incr i;
          incr j
        end
        else if a.(!i) < b.(!j) then incr i
        else incr j
      done;
      !s
    in
    (* Candidate restriction: a feasible partner either shares a net with us
       or has few enough inputs that the disjoint union fits. Index slots by
       net for the first kind ([by_net.(net_start.(n) ..)], readers of net
       [n] by descending slot index, from a count pass and a fill pass);
       scan a small-input bucket for the second. *)
    let num_nets = Vec.length net_names in
    let net_start = Array.make (num_nets + 1) 0 in
    Array.iter
      (fun nets ->
        Array.iter (fun n -> net_start.(n + 1) <- net_start.(n + 1) + 1) nets)
      sorted_nets;
    for n = 1 to num_nets do
      net_start.(n) <- net_start.(n) + net_start.(n - 1)
    done;
    let by_net = Array.make net_start.(num_nets) 0 in
    let fill = Array.sub net_start 0 num_nets in
    for i = n_slots - 1 downto 0 do
      let nets = sorted_nets.(i) in
      for p = 0 to Array.length nets - 1 do
        let n = nets.(p) in
        by_net.(fill.(n)) <- i;
        fill.(n) <- fill.(n) + 1
      done
    done;
    (* Small slots (≤ 2 inputs) bucketed by input count, ascending slot
       index, with a lazily advancing cursor per bucket. Scanning every
       small slot for every candidate (the obvious formulation) is
       O(slots x small-slots) — the pairing then dominates the whole
       mapping at 100k+ cells. Only a bucket's first live member can ever
       win from this pool, so considering just the heads is exact: a
       candidate sharing a net with the current slot is already reached
       through [by_net] (repeat consideration of the same slot cannot
       displace an equal (shared, union) incumbent), and among the
       zero-shared remainder the union size depends only on the bucket, so
       the earliest live member beats every deeper one under the
       keep-first tie-break. *)
    let small_buckets =
      let buckets = Array.make 3 [] in
      for i = n_slots - 1 downto 0 do
        let ni = Array.length sorted_nets.(i) in
        if ni <= 2 then buckets.(ni) <- i :: buckets.(ni)
      done;
      Array.map Array.of_list buckets
    in
    let cursors = Array.make 3 0 in
    (* The best partner of the slot being matched so far: [best_j] (-1 for
       none) with its shared and union net counts. *)
    let best_j = ref (-1) and best_shared = ref 0 and best_union = ref 0 in
    let consider i j =
      if j <> i && partner.(j) = -1 then begin
        let nets_i = sorted_nets.(i) and nets_j = sorted_nets.(j) in
        let shared = shared_count nets_i nets_j in
        let u = Array.length nets_i + Array.length nets_j - shared in
        if
          u <= Mapped.max_inputs
          && (!best_j < 0 || !best_shared < shared
             || (!best_shared = shared && !best_union > u))
        then begin
          best_j := j;
          best_shared := shared;
          best_union := u
        end
      end
    in
    for i = 0 to n_slots - 1 do
      if partner.(i) = -1 then begin
        let nets_i = sorted_nets.(i) in
        let ni = Array.length nets_i in
        best_j := -1;
        for p = 0 to ni - 1 do
          let n = nets_i.(p) in
          for e = net_start.(n) to net_start.(n + 1) - 1 do
            consider i by_net.(e)
          done
        done;
        if pair_disjoint && ni + 2 <= Mapped.max_inputs then
          for b = 0 to 2 do
            let arr = small_buckets.(b) in
            let len = Array.length arr in
            (* Matched slots never revive, so the cursor only moves
               forward; the scans below are amortised O(1). *)
            while
              cursors.(b) < len && partner.(arr.(cursors.(b))) <> -1
            do
              cursors.(b) <- cursors.(b) + 1
            done;
            if cursors.(b) < len then begin
              let head = arr.(cursors.(b)) in
              if head <> i then consider i head
              else begin
                (* The head is the slot being matched: its first live
                   successor stands in (without moving the cursor — [i]
                   itself is still live). *)
                let k = ref (cursors.(b) + 1) in
                while !k < len && partner.(arr.(!k)) <> -1 do incr k done;
                if !k < len then consider i arr.(!k)
              end
            end
          done;
        if !best_j >= 0 then begin
          partner.(i) <- !best_j;
          partner.(!best_j) <- i
        end
        else partner.(i) <- -2 (* stays single *)
      end
    done
  end;
  (* Materialise CLBs: slot [a] alone ([b] = -1) or with slot [b]. Inputs
     are the members' nets in pin order, first occurrence kept; at most
     [Mapped.max_inputs], so pins are found by a linear scan. *)
  let clbs = Vec.create () in
  let input_buf = Array.make Mapped.max_inputs 0 in
  let add_inputs len nets =
    let len = ref len in
    for p = 0 to Array.length nets - 1 do
      let n = nets.(p) in
      let q = ref 0 in
      while !q < !len && input_buf.(!q) <> n do incr q done;
      if !q = !len then begin
        input_buf.(!len) <- n;
        incr len
      end
    done;
    !len
  in
  let output inputs s =
    let slot = Vec.get slots s in
    let nets = slot_nets.(s) in
    let pins = Array.make (Array.length nets) 0 in
    for p = 0 to Array.length nets - 1 do
      let q = ref 0 in
      while inputs.(!q) <> nets.(p) do incr q done;
      pins.(p) <- !q
    done;
    {
      Mapped.net = net_of_node.(slot.out_node);
      table = slot.table;
      pins;
      registered = slot.registered;
    }
  in
  let slot_name s = (Circuit.node c (Vec.get slots s).out_node).Circuit.name in
  let emit a b =
    let len = add_inputs 0 slot_nets.(a) in
    let len = if b < 0 then len else add_inputs len slot_nets.(b) in
    let inputs = Array.sub input_buf 0 len in
    let clb =
      if b < 0 then
        { Mapped.name = slot_name a; inputs; outputs = [| output inputs a |] }
      else
        {
          Mapped.name = String.concat "+" [ slot_name a; slot_name b ];
          inputs;
          outputs = [| output inputs a; output inputs b |];
        }
    in
    ignore (Vec.push clbs clb)
  in
  for i = 0 to n_slots - 1 do
    if partner.(i) < 0 then emit i (-1)
    else if partner.(i) > i then emit i partner.(i)
  done;
  {
    Mapped.clbs = Vec.to_array clbs;
    num_nets = Vec.length net_names;
    net_names = Vec.to_array net_names;
    pi_nets;
    po_nets;
    name = c.Circuit.name;
  }
