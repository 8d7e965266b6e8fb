type options = {
  lut_inputs : int;
  pair : bool;
  pair_disjoint : bool;
}

let default_options = { lut_inputs = 4; pair = true; pair_disjoint = true }

let map ?(options = default_options) c =
  let decomposed = Decompose.run c in
  let cover = Cover.run ~k:options.lut_inputs decomposed in
  let mapped =
    Pack.run ~pair:options.pair ~pair_disjoint:options.pair_disjoint
      decomposed cover
  in
  match Mapped.validate mapped with
  | Ok () -> mapped
  | Error msg -> invalid_arg ("Mapper.map: produced an illegal netlist: " ^ msg)

let to_hypergraph (m : Mapped.t) =
  (* [Hypergraph.create] only flags these, so repeats are harmless. *)
  let externals =
    Array.to_list m.Mapped.pi_nets @ Array.to_list m.Mapped.po_nets
  in
  let specs =
    Array.to_list m.Mapped.clbs
    |> List.map (fun (clb : Mapped.clb) ->
           (* Demand vector: 1 CLB plus one FF per registered output (the
              XC3000 CLB hosts two). Purely combinational CLBs keep the
              1-ary vector, so the scalar objectives see the same shape
              as before. *)
           let ffs =
             Array.fold_left
               (fun acc (o : Mapped.output) ->
                 if o.Mapped.registered then acc + 1 else acc)
               0 clb.Mapped.outputs
           in
           {
             Hypergraph.s_name = clb.Mapped.name;
             s_area = 1;
             s_demand = (if ffs = 0 then [||] else [| 1; ffs |]);
             s_inputs = clb.Mapped.inputs;
             s_outputs = Array.map (fun o -> o.Mapped.net) clb.Mapped.outputs;
             s_supports =
               Array.mapi (fun o _ -> Mapped.support_mask clb o)
                 clb.Mapped.outputs;
           })
  in
  Hypergraph.create ~net_names:m.Mapped.net_names ~num_nets:m.Mapped.num_nets
    ~external_nets:externals specs
