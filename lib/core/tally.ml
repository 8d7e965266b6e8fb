open Kway_types

(* Running per-part sums of a whole-cell labelling over [k] parts: CLBs,
   demand vectors, and each net's parts with their pins (the part's cells
   on the net). Net [nt] owns the slots [t_first.(nt) ..] of [t_slots],
   [min k (cells on nt)] of them, [t_count.(nt)] in use, each one word
   packing [part lsl pin_bits + pins] and kept ascending, so in part
   order. Each cell sits in one part, so a net never carries more parts
   than cells: a tally costs O(nets + pins) words whatever [k]. Cells are
   added and moved in place, allocating nothing. *)
type t = {
  t_hg : Hypergraph.t;
  t_first : int array;  (** nets + 1 slot offsets *)
  t_count : int array;  (** distinct parts on each net *)
  t_slots : int array;  (** (part, pins) slots, net by net *)
  t_clbs : int array;
  t_used : int array array;
}

let pin_bits = Sys.int_size / 2
let slot_part s = s lsr pin_bits
let slot_pins s = s land ((1 lsl pin_bits) - 1)

(* Part [p]'s slot on net [nt] when [p] is there, else [-1 - x] for the
   slot [x] it would take: the first whose part is above [p]. *)
let slot t nt p =
  let x = ref t.t_first.(nt) in
  let stop = !x + t.t_count.(nt) in
  while !x < stop && slot_part t.t_slots.(!x) < p do
    incr x
  done;
  if !x < stop && slot_part t.t_slots.(!x) = p then !x else -1 - !x

(* Part [p]'s pins on net [nt]. *)
let pins t nt p =
  let x = slot t nt p in
  if x >= 0 then slot_pins t.t_slots.(x) else 0

(* Cell [c] joins ([by] = 1) or leaves ([by] = -1) part [p]. *)
let tally_add t c p by =
  let cell = Hypergraph.cell t.t_hg c in
  t.t_clbs.(p) <- t.t_clbs.(p) + (by * cell.Hypergraph.area);
  let d = cell.Hypergraph.demand and used = t.t_used.(p) in
  for a = 0 to Array.length d - 1 do
    used.(a) <- used.(a) + (by * d.(a))
  done;
  let nets = Hypergraph.cell_nets cell in
  for y = 0 to Array.length nets - 1 do
    let nt = nets.(y) in
    let x = slot t nt p in
    let stop = t.t_first.(nt) + t.t_count.(nt) in
    if x >= 0 then begin
      t.t_slots.(x) <- t.t_slots.(x) + by;
      if slot_pins t.t_slots.(x) = 0 then begin
        Array.blit t.t_slots (x + 1) t.t_slots x (stop - x - 1);
        t.t_count.(nt) <- t.t_count.(nt) - 1
      end
    end
    else begin
      let x = -1 - x in
      Array.blit t.t_slots x t.t_slots (x + 1) (stop - x);
      t.t_slots.(x) <- (p lsl pin_bits) + 1;
      t.t_count.(nt) <- t.t_count.(nt) + 1
    end
  done

(* Move cell [c] whole from part [src] to part [dst]. Leaving first keeps
   every net within its slots. *)
let tally_move t c ~src ~dst =
  tally_add t c src (-1);
  tally_add t c dst 1

(* The tally of [labels] over [k] parts; a cell labelled [-1] is left
   out. *)
let create hg k labels =
  let net_cells = hg.Hypergraph.net_cells in
  let nn = Array.length net_cells in
  let first = Array.make (nn + 1) 0 in
  for nt = 0 to nn - 1 do
    first.(nt + 1) <- first.(nt) + min k (Array.length net_cells.(nt))
  done;
  let t =
    {
      t_hg = hg;
      t_first = first;
      t_count = Array.make nn 0;
      t_slots = Array.make first.(nn) 0;
      t_clbs = Array.make k 0;
      t_used = Array.make_matrix k Hypergraph.demand_arity 0;
    }
  in
  Array.iteri (fun c p -> if p >= 0 then tally_add t c p 1) labels;
  t

(* Step one of materialising a whole-cell labelling, after its tally:
   count each part's IOBs and settle its device. A part pays an IOB for
   each net it shares with another part or with the outside. It keeps its
   device unless it outgrew it, and then takes the cheapest accepting
   device (lower window relaxed); a part with no CLBs, so no cell, keeps
   its device. *)
let settle_devices ~caller ~options ~library
    ~(devices : Fpga.Device.t array) t =
  let k = Array.length devices in
  let iobs = Array.make k 0 in
  for nt = 0 to Array.length t.t_count - 1 do
    let len = t.t_count.(nt) in
    if len >= 2 || (len = 1 && t.t_hg.Hypergraph.net_external.(nt)) then
      for x = t.t_first.(nt) to t.t_first.(nt) + len - 1 do
        let j = slot_part t.t_slots.(x) in
        iobs.(j) <- iobs.(j) + 1
      done
  done;
  let devices = Array.copy devices in
  let obj = options.objective in
  (* Downwards, so an error names the highest part that fits nothing. *)
  let rec settle p =
    if p < 0 then Ok (iobs, devices)
    else
      let demand = t.t_used.(p) and io = iobs.(p) in
      if
        t.t_clbs.(p) = 0
        || Fpga.Objective.fits ~relax_low:true obj devices.(p) ~demand ~iobs:io
      then settle (p - 1)
      else
        match
          Fpga.Objective.cheapest ~relax_low:true obj library ~demand ~iobs:io
        with
        | Some d ->
            devices.(p) <- d;
            settle (p - 1)
        | None ->
            Error
              (Printf.sprintf
                 "%s: no device accepts part %d (%d CLBs / %d IOBs)" caller p
                 t.t_clbs.(p) io)
  in
  settle (k - 1)

(* Step two: the parts themselves, each with its member list. Parts no
   cell carries are dropped. *)
let parts t ~labels ~iobs ~(devices : Fpga.Device.t array) =
  let members = Array.make (Array.length devices) [] in
  for c = Array.length labels - 1 downto 0 do
    let full =
      Bitvec.full (Array.length (Hypergraph.cell t.t_hg c).Hypergraph.outputs)
    in
    members.(labels.(c)) <- (c, full) :: members.(labels.(c))
  done;
  let parts = ref [] in
  for p = Array.length devices - 1 downto 0 do
    if members.(p) <> [] then
      parts :=
        { device = devices.(p); members = members.(p); clbs = t.t_clbs.(p);
          iobs = iobs.(p); used = t.t_used.(p) }
        :: !parts
  done;
  !parts

(* The parts a tally's labelling puts at least one cell in (every cell
   has an area of at least 1). *)
let live_parts t =
  Array.fold_left (fun a cl -> if cl > 0 then a + 1 else a) 0 t.t_clbs

(* Both steps: the parts of a warm start and of [project_parts]. Labels
   carry no replication: every cell sits whole in its labelled part. *)
let materialise ~caller ~options ~library ~labels ~devices t =
  Result.map
    (fun (iobs, devices) -> parts t ~labels ~iobs ~devices)
    (settle_devices ~caller ~options ~library ~devices t)

let project_parts ?(options = Options.default) ~library ~labels
    ~(devices : Fpga.Device.t array) hg =
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let n = Hypergraph.num_cells hg in
  let k = Array.length devices in
  if Array.length labels <> n then
    err "Kway.project_parts: labels cover %d cells, hypergraph has %d"
      (Array.length labels) n
  else if k = 0 then err "Kway.project_parts: empty device array"
  else if Array.exists (fun l -> l < 0 || l >= k) labels then
    err "Kway.project_parts: label out of range (only %d devices)" k
  else
    materialise ~caller:"Kway.project_parts" ~options ~library ~labels ~devices
      (create hg k labels)

(* Deterministic greedy passes moving whole cells to the neighbouring
   part that most reduces total terminal usage (eq. 2), under the fixed
   per-part device windows. The multilevel walk refines every level with
   this: [refine_pair] carves the pair union and runs multi-pass F-M
   per part pair, which is superlinear in level size, while a greedy
   sweep costs O(pins) per pass — the only refinement shape that survives
   100k-cell levels. Only [dirty] cells (the projected boundary) are
   candidates. A move updates [labels], the tally [t] and the live IOB
   counts [iobs] in place; devices are kept, since the windows are
   checked per move and cheapening is the flat driver's job. Past its
   per-part windows and a [k]-slot candidate buffer it allocates
   nothing. *)
let greedy_refine ~opts ~obs ~dirty ~rounds ~labels ~iobs ~devices t =
  let hg = t.t_hg in
  let k = Array.length devices in
  let ext = hg.Hypergraph.net_external in
  let clbs = t.t_clbs and used = t.t_used in
  let windows = Array.map (Fpga.Objective.window opts.objective) devices in
  let adjacent = Array.make k false in
  let cands = Array.make k 0 in
  for round = 1 to rounds do
    let moved = ref 0 in
    let shed = ref 0 in
    Obs.span obs (Printf.sprintf "greedy%d" round) (fun () ->
        for c = 0 to Hypergraph.num_cells hg - 1 do
          if dirty.(c) && not (opts.should_stop ()) then begin
            let i = labels.(c) in
            let cell = Hypergraph.cell hg c in
            let nets = Hypergraph.cell_nets cell in
            (* The other parts on the cell's nets, in discovery order (its
               nets ascending, then parts ascending). *)
            let ncands = ref 0 in
            adjacent.(i) <- true;
            for x = 0 to Array.length nets - 1 do
              let nt = nets.(x) in
              for y = t.t_first.(nt) to t.t_first.(nt) + t.t_count.(nt) - 1 do
                let j = slot_part t.t_slots.(y) in
                if not adjacent.(j) then begin
                  adjacent.(j) <- true;
                  cands.(!ncands) <- j;
                  incr ncands
                end
              done
            done;
            adjacent.(i) <- false;
            for y = 0 to !ncands - 1 do
              adjacent.(cands.(y)) <- false
            done;
            let a = cell.Hypergraph.area in
            let d = cell.Hypergraph.demand in
            (* The best fitting move so far; the first wins a tie. *)
            let best = ref (-1) in
            let best_di = ref 0 and best_dj = ref 0 in
            for y = 0 to !ncands - 1 do
              let j = cands.(y) in
              (* Terminal delta for parts [i] (source) and [j] (target)
                 when the full cell moves. Every other part keeps its pins
                 and at least as many co-touchers on each affected net, so
                 only these two change. *)
              let di = ref 0 and dj = ref 0 in
              for x = 0 to Array.length nets - 1 do
                let nt = nets.(x) in
                let ci = pins t nt i and cj = pins t nt j in
                let tc = t.t_count.(nt) in
                let tc' =
                  tc - (if ci = 1 then 1 else 0) + if cj = 0 then 1 else 0
                in
                let e = ext.(nt) in
                let outside = e || tc >= 2 and outside' = e || tc' >= 2 in
                if outside then decr di;
                if ci > 1 && outside' then incr di;
                if cj > 0 && outside then decr dj;
                if outside' then incr dj
              done;
              let di = !di and dj = !dj in
              (* The target must stay under its window's caps, CLB axis
                 included ([used.(j).(0)] is [clbs.(j)]); the source keeps
                 at least one CLB. *)
              let fits =
                clbs.(i) - a >= 1
                && iobs.(j) + dj <= windows.(j).max_iobs
                && iobs.(i) + di <= windows.(i).max_iobs
                &&
                let w = windows.(j) and uj = used.(j) in
                let ok = ref true in
                for ax = 0 to w.axes - 1 do
                  let dem = if ax < Array.length d then d.(ax) else 0 in
                  if uj.(ax) + dem > w.hi.(ax) then ok := false
                done;
                !ok
              in
              if
                fits && di + dj < 0
                && (!best < 0 || di + dj < !best_di + !best_dj)
              then begin
                best := j;
                best_di := di;
                best_dj := dj
              end
            done;
            if !best >= 0 then begin
              let j = !best in
              labels.(c) <- j;
              iobs.(i) <- iobs.(i) + !best_di;
              iobs.(j) <- iobs.(j) + !best_dj;
              tally_move t c ~src:i ~dst:j;
              incr moved;
              shed := !shed - (!best_di + !best_dj)
            end
          end
        done);
    if Obs.enabled obs then begin
      Obs.incr obs ~by:!moved "kway.greedy_moves";
      Obs.event obs "kway.greedy_round"
        [
          ("round", Obs.Json.Int round);
          ("moved", Obs.Json.Int !moved);
          ("terminals_shed", Obs.Json.Int !shed);
        ]
    end
  done

(* Seed cells with no inherited label (new cells of the edit) where their
   connectivity pulls them: most incident nets already present, ties
   broken towards parts with capacity headroom, then towards the emptier
   part. Greedy in ascending id — deterministic, and the dirty-restricted
   refinement cleans up any misplacement. Seeded cells become dirty;
   returns the finished labelling's tally and how many there were. *)
let seed_unlabelled hg ~(windows : Fpga.Objective.window array) labels dirty =
  let k = Array.length windows in
  let n = Array.length labels in
  let t = create hg k labels in
  let clbs = t.t_clbs in
  let affinity = Array.make k 0 in
  let seeded = ref 0 in
  for c = 0 to n - 1 do
    if labels.(c) < 0 then begin
      Array.fill affinity 0 k 0;
      let nets = Hypergraph.cell_nets (Hypergraph.cell hg c) in
      for x = 0 to Array.length nets - 1 do
        let nt = nets.(x) in
        for y = t.t_first.(nt) to t.t_first.(nt) + t.t_count.(nt) - 1 do
          let p = slot_part t.t_slots.(y) in
          affinity.(p) <- affinity.(p) + 1
        done
      done;
      let area = (Hypergraph.cell hg c).Hypergraph.area in
      (* The largest key (affinity, fits, -clbs), lexicographically;
         the first part wins a tie. *)
      let best = ref 0 in
      let best_aff = ref min_int and best_fits = ref min_int in
      let best_neg = ref min_int in
      for p = 0 to k - 1 do
        let fits =
          if clbs.(p) + area <= windows.(p).hi.(Fpga.Resource.clb) then 1
          else 0
        in
        let aff = affinity.(p) and neg = -clbs.(p) in
        if
          aff > !best_aff
          || aff = !best_aff
             && (fits > !best_fits || (fits = !best_fits && neg > !best_neg))
        then begin
          best_aff := aff;
          best_fits := fits;
          best_neg := neg;
          best := p
        end
      done;
      labels.(c) <- !best;
      dirty.(c) <- true;
      tally_add t c !best 1;
      incr seeded
    end
  done;
  (t, !seeded)
