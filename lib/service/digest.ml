module C = Netlist.Circuit

(* Rebuild the circuit resolving nodes in sorted-name order. Signal names
   are unique (the Builder enforces it), so the resulting numbering is a
   pure function of the circuit's structure — the declaration order of the
   source file is forgotten. Resolution is the same DFS-with-DFF-
   placeholders scheme the netlist parsers use: a flip-flop's D cone may
   read its own Q, so DFFs enter as placeholders and get wired after all
   nodes exist. *)
let canonical_circuit c =
  let names =
    Array.to_list (Array.map (fun (n : C.node) -> n.C.name) c.C.nodes)
    |> List.sort String.compare
  in
  let b = C.Builder.create ~name:c.C.name () in
  let ids = Hashtbl.create (Array.length c.C.nodes) in
  let rec resolve old_id =
    let node = C.node c old_id in
    match Hashtbl.find_opt ids node.C.name with
    | Some id -> id
    | None ->
        let id =
          match node.C.kind with
          | Netlist.Gate.Input -> C.Builder.input b node.C.name
          | Netlist.Gate.Dff -> C.Builder.dff_placeholder b node.C.name
          | kind ->
              let fanins =
                Array.to_list (Array.map resolve node.C.fanins)
              in
              C.Builder.gate b ~name:node.C.name kind fanins
        in
        Hashtbl.replace ids node.C.name id;
        id
  in
  List.iter
    (fun name ->
      match C.find c name with
      | Some old_id -> ignore (resolve old_id)
      | None -> assert false)
    names;
  Array.iter
    (fun (node : C.node) ->
      if Netlist.Gate.equal node.C.kind Netlist.Gate.Dff then
        C.Builder.connect_dff b
          (Hashtbl.find ids node.C.name)
          (resolve node.C.fanins.(0)))
    c.C.nodes;
  Array.to_list c.C.outputs
  |> List.map (fun id -> (C.node c id).C.name)
  |> List.sort String.compare
  |> List.iter (fun name -> C.Builder.mark_output b (Hashtbl.find ids name));
  C.Builder.finish b

let md5_hex s = Stdlib.Digest.to_hex (Stdlib.Digest.string s)

let add_ints buf ints =
  Array.iter (fun i -> Buffer.add_string buf (string_of_int i ^ ",")) ints

let hypergraph_fingerprint (h : Hypergraph.t) =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (Printf.sprintf "cells=%d;" (Hypergraph.num_cells h));
  Array.iter
    (fun (cell : Hypergraph.cell) ->
      Buffer.add_string buf cell.Hypergraph.name;
      Buffer.add_char buf '#';
      Buffer.add_string buf (string_of_int cell.Hypergraph.area);
      Buffer.add_string buf ";dem:";
      add_ints buf cell.Hypergraph.demand;
      Buffer.add_string buf ";in:";
      add_ints buf cell.Hypergraph.inputs;
      Buffer.add_string buf ";out:";
      add_ints buf cell.Hypergraph.outputs;
      Buffer.add_string buf ";sup:";
      Array.iter
        (fun s ->
          add_ints buf (Array.of_list (Bitvec.to_list s));
          Buffer.add_char buf '|')
        cell.Hypergraph.supports;
      Buffer.add_char buf '\n')
    h.Hypergraph.cells;
  Buffer.add_string buf (Printf.sprintf "nets=%d;" h.Hypergraph.num_nets);
  Array.iteri
    (fun n name ->
      Buffer.add_string buf name;
      Buffer.add_string buf (if h.Hypergraph.net_external.(n) then "!;" else ";"))
    h.Hypergraph.net_names;
  md5_hex (Buffer.contents buf)

(* Identity floats: [s], a float's rendering, when it reads back as
   [f], else [f]'s exact hex form, so every two distinct floats hash
   apart. A hex form has an 'x', which no decimal rendering has, and a
   float that reads back keeps its bytes, so existing keys hold. *)
let reads_back s f =
  match float_of_string_opt s with Some g -> Float.equal g f | None -> false

let exact s f = if reads_back s f then s else Printf.sprintf "%h" f

(* The scalar fields are cached views of the vectors, but both go into
   the hash anyway: two devices that differ only on a secondary axis
   (say BRAM capacity) are different parts and must not share job
   keys. *)
let library_fingerprint lib =
  let buf = Buffer.create 256 in
  List.iter
    (fun (d : Fpga.Device.t) ->
      let f x = exact (Printf.sprintf "%.6f" x) x in
      Buffer.add_string buf
        (Printf.sprintf "%s:%d:%d:%s:%s:%s;res:" d.Fpga.Device.name
           d.Fpga.Device.capacity d.Fpga.Device.terminals
           (f d.Fpga.Device.price) (f d.Fpga.Device.util_low)
           (f d.Fpga.Device.util_high));
      add_ints buf d.Fpga.Device.resources;
      Buffer.add_string buf ";win:";
      Array.iteri
        (fun a low ->
          Buffer.add_string buf
            (Printf.sprintf "%s..%s," (f low) (f d.Fpga.Device.res_high.(a))))
        d.Fpga.Device.res_low;
      Buffer.add_char buf '\n')
    (Fpga.Library.devices lib);
  md5_hex (Buffer.contents buf)

(* A float the JSON format rounds (it keeps 12 digits) becomes its exact
   hex form, as a string. *)
let rec exact_floats = function
  | Obs.Json.Float f as j ->
      let s = Obs.Json.to_string j in
      if reads_back s f then j else Obs.Json.String (Printf.sprintf "%h" f)
  | Obs.Json.Obj fields ->
      Obs.Json.Obj (List.map (fun (k, v) -> (k, exact_floats v)) fields)
  | Obs.Json.List items -> Obs.Json.List (List.map exact_floats items)
  | j -> j

(* The options JSON of the stats schema is exactly the result-shaping
   subset (jobs and should_stop are execution knobs, deliberately absent
   there), so its deterministic rendering, with exact floats, is the
   right hash input. *)
let options_fingerprint options =
  md5_hex
    (Obs.Json.to_string
       (exact_floats (Experiments.Obs_report.options_to_json options)))

let job_key ~library ~options h =
  md5_hex
    (hypergraph_fingerprint h ^ "/" ^ library_fingerprint library ^ "/"
   ^ options_fingerprint options)

let lineage_key ~base ~edited = md5_hex (base ^ ">" ^ edited)
