(* Independent result oracle. Every figure a partition claims is recounted
   here from first principles — member masks, cell areas and demand
   vectors, net incidence, device fields — without calling Kway.check or
   Fpga.Cost, so a bug shared by the engine and its own checker still
   shows up as a failed job. *)

module J = Obs.Json
module Kway = Core.Kway

let ( let* ) = Result.bind
let err fmt = Printf.ksprintf (fun s -> Error s) fmt

let rec all f = function
  | [] -> Ok ()
  | x :: rest ->
      let* () = f x in
      all f rest

(* The CLB window of a part: at most floor(util_high * capacity) CLBs and
   at most [terminals] IOBs. The lower window is relaxed for every part,
   as Kway.check documents (a remainder part may under-fill its device). *)
let within_device (d : Fpga.Device.t) ~clbs ~iobs =
  let max_clbs =
    Float.floor (d.Fpga.Device.util_high *. float_of_int d.Fpga.Device.capacity)
  in
  clbs <= int_of_float max_clbs && iobs <= d.Fpga.Device.terminals

let library_device library name =
  List.find_opt
    (fun (d : Fpga.Device.t) -> String.equal d.Fpga.Device.name name)
    (Fpga.Library.devices library)

(* Prices are summed in part order, the order the engine reports eq. (1)
   in; they are whole dollars, so the float sum is exact and the
   comparison can be strict. *)
let sum_prices devices =
  List.fold_left
    (fun acc (d : Fpga.Device.t) -> acc +. d.Fpga.Device.price)
    0.0 devices

let count p l = List.fold_left (fun a x -> if p x then a + 1 else a) 0 l

(* In-process results carry their members: recount everything. *)
let result ~library (h : Hypergraph.t) (r : Kway.result) =
  let n = Hypergraph.num_cells h in
  let parts = List.mapi (fun j p -> (j, p)) r.Kway.parts in
  let driven = Array.make n Bitvec.empty in
  let copies = Array.make n 0 in
  (* Every output of every cell is driven by exactly one part. *)
  let* () =
    all
      (fun (j, (p : Kway.part)) ->
        all
          (fun (c, m) ->
            if c < 0 || c >= n then err "part %d: cell %d out of range" j c
            else if Bitvec.is_empty m then
              err "part %d: cell %d carries no output" j c
            else if not (Bitvec.is_empty (Bitvec.inter driven.(c) m)) then
              err "cell %d: an output is driven by two parts" c
            else begin
              driven.(c) <- Bitvec.union driven.(c) m;
              copies.(c) <- copies.(c) + 1;
              Ok ()
            end)
          p.Kway.members)
      parts
  in
  let* () =
    all
      (fun c ->
        let outs = Array.length (Hypergraph.cell h c).Hypergraph.outputs in
        if Bitvec.equal driven.(c) (Bitvec.full outs) then Ok ()
        else err "cell %d: some output is driven by no part" c)
      (List.init n Fun.id)
  in
  (* The nets each part touches, and how many parts touch each net. *)
  let touchers = Array.make h.Hypergraph.num_nets 0 in
  let mark = Array.make h.Hypergraph.num_nets (-1) in
  let nets_of (j, (p : Kway.part)) =
    List.fold_left
      (fun acc (c, m) ->
        Array.fold_left
          (fun acc net ->
            if mark.(net) = j then acc
            else begin
              mark.(net) <- j;
              touchers.(net) <- touchers.(net) + 1;
              net :: acc
            end)
          acc
          (Hypergraph.connected_nets (Hypergraph.cell h c) ~out_mask:m))
      [] p.Kway.members
  in
  let part_nets = List.map nets_of parts in
  (* Per part: CLBs, demand and IOBs recounted, and the device window. *)
  let* () =
    all
      (fun ((j, (p : Kway.part)), nets) ->
        let demand = Array.make Hypergraph.demand_arity 0 in
        let clbs =
          List.fold_left
            (fun acc (c, _) ->
              let cell = Hypergraph.cell h c in
              Array.iteri
                (fun a v -> demand.(a) <- demand.(a) + v)
                cell.Hypergraph.demand;
              acc + cell.Hypergraph.area)
            0 p.Kway.members
        in
        let iobs =
          count
            (fun net -> h.Hypergraph.net_external.(net) || touchers.(net) > 1)
            nets
        in
        let d = p.Kway.device in
        match library_device library d.Fpga.Device.name with
        | None -> err "part %d: device %s is not in the library" j d.Fpga.Device.name
        | Some ld when ld.Fpga.Device.price <> d.Fpga.Device.price ->
            err "part %d: device %s priced %.2f, the library says %.2f" j
              d.Fpga.Device.name d.Fpga.Device.price ld.Fpga.Device.price
        | Some _ ->
            if clbs <> p.Kway.clbs then
              err "part %d: records %d CLBs, its members sum to %d" j
                p.Kway.clbs clbs
            else if iobs <> p.Kway.iobs then
              err "part %d: records %d IOBs, the recount gives %d" j
                p.Kway.iobs iobs
            else if p.Kway.used <> demand then
              err "part %d: recorded demand differs from its members" j
            else if not (within_device d ~clbs ~iobs) then
              err "part %d: %d CLBs / %d IOBs violate device %s" j clbs iobs
                d.Fpga.Device.name
            else Ok ())
      (List.combine parts part_nets)
  in
  (* The summary agrees with the parts. *)
  let s = r.Kway.summary in
  let ps = r.Kway.parts in
  let total f = List.fold_left (fun a p -> a + f p) 0 ps in
  let cost = sum_prices (List.map (fun p -> p.Kway.device) ps) in
  let replicated = count (fun k -> k > 1) (Array.to_list copies) in
  if s.Fpga.Cost.num_partitions <> List.length ps then
    err "summary: %d partitions for %d parts" s.Fpga.Cost.num_partitions
      (List.length ps)
  else if s.Fpga.Cost.total_cost <> cost then
    err "summary: cost %.2f, library prices sum to %.2f"
      s.Fpga.Cost.total_cost cost
  else if s.Fpga.Cost.total_clbs <> total (fun p -> p.Kway.clbs) then
    err "summary: CLB total disagrees with the parts"
  else if s.Fpga.Cost.total_iobs <> total (fun p -> p.Kway.iobs) then
    err "summary: IOB total disagrees with the parts"
  else if r.Kway.replicated_cells <> replicated then
    err "summary: %d replicated cells, the members show %d"
      r.Kway.replicated_cells replicated
  else if r.Kway.total_cells <> n then
    err "summary: %d cells, the hypergraph has %d" r.Kway.total_cells n
  else Ok ()

(* Service replies carry no members: check the summary against the
   library and against itself. [doc] is the reply's "result" document. *)
let reply ~library doc =
  let field k o conv =
    Option.to_result
      ~none:(Printf.sprintf "reply: missing or ill-typed %S" k)
      (Option.bind (J.member k o) conv)
  in
  let* res = field "result" doc Option.some in
  let* parts = field "parts" res (function J.List l -> Some l | _ -> None) in
  let* placed =
    List.fold_left
      (fun acc p ->
        let* acc = acc in
        let* name = field "device" p J.to_str in
        let* clbs = field "clbs" p J.to_int in
        let* iobs = field "iobs" p J.to_int in
        match library_device library name with
        | None -> err "reply: device %s is not in the library" name
        | Some d when not (within_device d ~clbs ~iobs) ->
            err "reply: %d CLBs / %d IOBs violate device %s" clbs iobs name
        | Some d -> Ok ((d, clbs, iobs) :: acc))
      (Ok []) parts
  in
  let placed = List.rev placed in
  let* k = field "num_partitions" res J.to_int in
  let* cost = field "total_cost" res J.to_float in
  let* total_clbs = field "total_clbs" res J.to_int in
  let* total_iobs = field "total_iobs" res J.to_int in
  let* cells = field "total_cells" res J.to_int in
  let* replicated = field "replicated_cells" res J.to_int in
  let* clb_util = field "avg_clb_utilization" res J.to_float in
  let* iob_util = field "avg_iob_utilization" res J.to_float in
  let sum f = List.fold_left (fun a x -> a + f x) 0 placed in
  let ratio a b = float_of_int a /. float_of_int b in
  let capacity = sum (fun ((d : Fpga.Device.t), _, _) -> d.Fpga.Device.capacity) in
  let terminals = sum (fun ((d : Fpga.Device.t), _, _) -> d.Fpga.Device.terminals) in
  (* The document's floats went through the JSON emitter's fixed format. *)
  let close a b = Float.abs (a -. b) <= 1e-6 *. Float.max 1.0 (Float.abs b) in
  if k <> List.length placed then
    err "reply: %d partitions for %d parts" k (List.length placed)
  else if cost <> sum_prices (List.map (fun (d, _, _) -> d) placed) then
    err "reply: cost %.2f disagrees with the library prices" cost
  else if total_clbs <> sum (fun (_, c, _) -> c) then
    err "reply: CLB total disagrees with its parts"
  else if total_iobs <> sum (fun (_, _, i) -> i) then
    err "reply: IOB total disagrees with its parts"
  else if cells <= 0 || total_clbs < cells then
    err "reply: %d CLBs cannot hold %d cells" total_clbs cells
  else if replicated < 0 || replicated > cells then
    err "reply: %d replicated of %d cells" replicated cells
  else if not (close clb_util (ratio total_clbs capacity)) then
    err "reply: CLB utilization disagrees with its devices"
  else if not (close iob_util (ratio total_iobs terminals)) then
    err "reply: IOB utilization (eq. 2) disagrees with its devices"
  else Ok ()
