module F = Hypergraph.Flat

type side = A | B

let opposite = function A -> B | B -> A

type t = {
  g : F.t;
  out_on_b : Bitvec.t array;
  conn_a : int array;  (* per net: copies connected on side A *)
  conn_b : int array;
  mutable cut : int;
  mutable term_a : int;
  mutable term_b : int;
  (* Per-side resource totals over the cells' demand vectors; slot 0 is
     the CLB area. Fixed length [Hypergraph.demand_arity]. A replicated
     cell pays its full demand on both sides. *)
  res_a : int array;
  res_b : int array;
  (* Scratch buffers for the per-operation net deltas (F-M evaluates one
     candidate operation per neighbouring cell after every applied move, so
     this path must not allocate): (net, da, db) triples in ascending net
     order. Sized to the largest cell degree, which bounds every
     operation's touched nets, so they never grow. *)
  s_nets : int array;
  s_da : int array;
  s_db : int array;
  mutable s_len : int;
  (* Nets whose per-side connection category (0 / 1 / >=2) changed in the
     last [apply] — exactly the nets that crossed a gain-relevant critical
     boundary (0<->1 or 1<->2 on a side). Kept separate from the s_* eval
     scratch so readers may interleave [eval_into] calls with the
     iteration. *)
  ch_nets : int array;
  mutable ch_len : int;
  sd : scratch; (* reusable delta target of apply *)
}

and scratch = {
  mutable sc_cut : int;
  mutable sc_term_a : int;
  mutable sc_term_b : int;
  mutable sc_area_a : int;
  mutable sc_area_b : int;
  sc_res_a : int array;
  sc_res_b : int array;
}

let make_scratch () =
  {
    sc_cut = 0;
    sc_term_a = 0;
    sc_term_b = 0;
    sc_area_a = 0;
    sc_area_b = 0;
    sc_res_a = Array.make Hypergraph.demand_arity 0;
    sc_res_b = Array.make Hypergraph.demand_arity 0;
  }

let graph t = t.g

(* Input pins a copy of cell [c] carrying the outputs [m] connects: the
   support of [m]. Every input pin supports some output
   (Hypergraph.create checks it), so a whole copy connects them all.
   [full] is the cell's all-outputs mask and [all_in] its all-inputs
   mask. *)
let in_support g c ~full ~all_in m =
  if Bitvec.is_empty m then Bitvec.empty
  else if Bitvec.equal m full then all_in
  else F.input_support g c m

(* 1 when a copy carrying the outputs [out_mask] and connecting the input
   pins [in_mask] touches a net wired to the output pins [outs] and the
   input pins [ins], else 0. Native [land] on the [Bitvec.t = int] masks:
   the library builds with -opaque in dune's default profile, so every
   cross-module call is a real call, and this runs four times per net in
   the delta kernel. *)
let touch ~outs ~ins out_mask in_mask =
  if outs land out_mask = 0 && ins land in_mask = 0 then 0 else 1

let all_inputs g c = Bitvec.full g.F.inputs.(c)

let full_mask t c = Bitvec.full t.g.F.outputs.(c)
let mask t c = t.out_on_b.(c)

let is_replicated t c =
  let m = t.out_on_b.(c) in
  (not (Bitvec.is_empty m)) && not (Bitvec.equal m (full_mask t c))

let num_replicated t =
  let n = ref 0 in
  for c = 0 to t.g.F.num_cells - 1 do
    if is_replicated t c then incr n
  done;
  !n

let cut t = t.cut
let terminals t = function A -> t.term_a | B -> t.term_b
let area t = function A -> t.res_a.(0) | B -> t.res_b.(0)
let resource t side a = match side with A -> t.res_a.(a) | B -> t.res_b.(a)
let resources t side =
  Array.copy (match side with A -> t.res_a | B -> t.res_b)

let single_side t c =
  let m = t.out_on_b.(c) in
  if Bitvec.is_empty m then Some A
  else if Bitvec.equal m (full_mask t c) then Some B
  else None

let connections t side n =
  match side with A -> t.conn_a.(n) | B -> t.conn_b.(n)

let mask_on t c = function
  | B -> t.out_on_b.(c)
  | A -> Bitvec.diff (full_mask t c) t.out_on_b.(c)

let side_copies t side =
  let acc = ref [] in
  for c = t.g.F.num_cells - 1 downto 0 do
    let m = mask_on t c side in
    if not (Bitvec.is_empty m) then acc := (c, m) :: !acc
  done;
  !acc

let carve t side ~into =
  for c = 0 to t.g.F.num_cells - 1 do
    let m = mask_on t c side in
    if not (Bitvec.is_empty m) then F.stage into ~cell:c m
  done;
  F.carve t.g ~into

(* Per-net contributions to the tracked counters. *)
let cut_of ca cb = if ca > 0 && cb > 0 then 1 else 0

let term_a_of ~ext ca cb = if ca > 0 && (cb > 0 || ext) then 1 else 0
let term_b_of ~ext ca cb = if cb > 0 && (ca > 0 || ext) then 1 else 0

(* Count a copy of cell [c] carrying the outputs [m] into the per-net
   side counts [conn]. *)
let count_copy g c ~full m conn =
  if not (Bitvec.is_empty m) then begin
    let in_mask = in_support g c ~full ~all_in:(all_inputs g c) m in
    for k = g.F.cell_off.(c) to g.F.cell_off.(c + 1) - 1 do
      let n = g.F.inc_net.(k) in
      conn.(n) <-
        conn.(n) + touch ~outs:g.F.inc_out.(k) ~ins:g.F.inc_in.(k) m in_mask
    done
  end

(* Add the demand of a copy of cell [c] carrying the outputs [m] to
   [res]. *)
let count_demand g c m res =
  if not (Bitvec.is_empty m) then
    for a = 0 to Hypergraph.demand_arity - 1 do
      res.(a) <- res.(a) + g.F.demand.((c * Hypergraph.demand_arity) + a)
    done

(* Count every counter of [t] from its masks, into counters that read
   zero: the one count behind [create_with_masks], [reuse_with_masks],
   [recompute] and [check_consistency]. *)
let count t =
  let g = t.g in
  for c = 0 to g.F.num_cells - 1 do
    let full = full_mask t c in
    let m_a = mask_on t c A and m_b = mask_on t c B in
    count_demand g c m_a t.res_a;
    count_demand g c m_b t.res_b;
    count_copy g c ~full m_a t.conn_a;
    count_copy g c ~full m_b t.conn_b
  done;
  for n = 0 to g.F.num_nets - 1 do
    let ext = g.F.net_external.(n) in
    let ca = t.conn_a.(n) and cb = t.conn_b.(n) in
    t.cut <- t.cut + cut_of ca cb;
    t.term_a <- t.term_a + term_a_of ~ext ca cb;
    t.term_b <- t.term_b + term_b_of ~ext ca cb
  done

(* A state over the masks [out_on_b] in fresh, zeroed arrays. The scratch
   capacity is the most nets one operation can touch. *)
let counted g out_on_b =
  let len = g.F.max_degree in
  let t =
    {
      g;
      out_on_b;
      conn_a = Array.make g.F.num_nets 0;
      conn_b = Array.make g.F.num_nets 0;
      cut = 0;
      term_a = 0;
      term_b = 0;
      res_a = Array.make Hypergraph.demand_arity 0;
      res_b = Array.make Hypergraph.demand_arity 0;
      s_nets = Array.make len 0;
      s_da = Array.make len 0;
      s_db = Array.make len 0;
      s_len = 0;
      ch_nets = Array.make len 0;
      ch_len = 0;
      sd = make_scratch ();
    }
  in
  count t;
  t

let checked_mask g ~masks c =
  let m = masks c in
  if not (Bitvec.subset m (Bitvec.full g.F.outputs.(c))) then
    invalid_arg "Partition_state: initial mask out of range";
  m

let create_with_masks g ~masks =
  counted g (Array.init g.F.num_cells (checked_mask g ~masks))

let whole g ~init_on_b c =
  if init_on_b c then Bitvec.full g.F.outputs.(c) else Bitvec.empty

let create g ~init_on_b = create_with_masks g ~masks:(whole g ~init_on_b)

(* Retarget [t]'s arrays to [g] when they are long enough for it. The
   arrays keep their length, so a state sized for the largest graph of a
   run serves every smaller one; only the first [num_cells] masks and
   [num_nets] counts are live, and they are overwritten or zeroed here
   before [count] reads them. *)
let reuse_with_masks t g ~masks =
  let n = g.F.num_cells and nets = g.F.num_nets in
  if
    Array.length t.out_on_b < n
    || Array.length t.conn_a < nets
    || Array.length t.s_nets < g.F.max_degree
  then create_with_masks g ~masks
  else begin
    for c = 0 to n - 1 do
      t.out_on_b.(c) <- checked_mask g ~masks c
    done;
    Array.fill t.conn_a 0 nets 0;
    Array.fill t.conn_b 0 nets 0;
    Array.fill t.res_a 0 Hypergraph.demand_arity 0;
    Array.fill t.res_b 0 Hypergraph.demand_arity 0;
    let t =
      { t with g; cut = 0; term_a = 0; term_b = 0; s_len = 0; ch_len = 0 }
    in
    count t;
    t
  end

let reuse t g ~init_on_b = reuse_with_masks t g ~masks:(whole g ~init_on_b)

let recompute t =
  let r = counted t.g t.out_on_b in
  (r.cut, r.term_a, r.term_b, r.res_a.(0), r.res_b.(0))

(* Per-net connection deltas of a mask change into the scratch buffers:
   entries (net, da, db) with da/db in {-1, 0, +1}, in ascending net
   order. One scan over the cell's distinct nets, testing each against
   the old and new copy of each side through the cell's pin masks, so
   even a wide cluster cell's partial masks cost O(degree) and nothing is
   allocated. *)
let net_deltas t c new_mask =
  let g = t.g in
  let old_b = t.out_on_b.(c) in
  let full = full_mask t c in
  let old_a = Bitvec.diff full old_b and new_a = Bitvec.diff full new_mask in
  let all_in = all_inputs g c in
  let in_old_a = in_support g c ~full ~all_in old_a
  and in_new_a = in_support g c ~full ~all_in new_a
  and in_old_b = in_support g c ~full ~all_in old_b
  and in_new_b = in_support g c ~full ~all_in new_mask in
  t.s_len <- 0;
  for k = g.F.cell_off.(c) to g.F.cell_off.(c + 1) - 1 do
    let outs = g.F.inc_out.(k) and ins = g.F.inc_in.(k) in
    let da =
      touch ~outs ~ins new_a in_new_a - touch ~outs ~ins old_a in_old_a
    in
    let db =
      touch ~outs ~ins new_mask in_new_b - touch ~outs ~ins old_b in_old_b
    in
    if da <> 0 || db <> 0 then begin
      t.s_nets.(t.s_len) <- g.F.inc_net.(k);
      t.s_da.(t.s_len) <- da;
      t.s_db.(t.s_len) <- db;
      t.s_len <- t.s_len + 1
    end
  done

let exists m = if Bitvec.is_empty m then 0 else 1

(* Fold the scratch net deltas into [out] (scratch must hold the deltas of
   changing cell [c] to [new_mask]). Writes fields in place — the F-M hot
   loop evaluates one candidate per affected neighbour per applied move, so
   this path allocates nothing. *)
let scratch_totals t c new_mask (out : scratch) =
  let g = t.g in
  let d_cut = ref 0 and d_ta = ref 0 and d_tb = ref 0 in
  for i = 0 to t.s_len - 1 do
    let n = t.s_nets.(i) and da = t.s_da.(i) and db = t.s_db.(i) in
    let ca = t.conn_a.(n) and cb = t.conn_b.(n) in
    let ext = g.F.net_external.(n) in
    d_cut := !d_cut + cut_of (ca + da) (cb + db) - cut_of ca cb;
    d_ta := !d_ta + term_a_of ~ext (ca + da) (cb + db) - term_a_of ~ext ca cb;
    d_tb := !d_tb + term_b_of ~ext (ca + da) (cb + db) - term_b_of ~ext ca cb
  done;
  let old_b = t.out_on_b.(c) in
  let full = full_mask t c in
  out.sc_cut <- !d_cut;
  out.sc_term_a <- !d_ta;
  out.sc_term_b <- !d_tb;
  let ma =
    exists (Bitvec.diff full new_mask) - exists (Bitvec.diff full old_b)
  in
  let mb = exists new_mask - exists old_b in
  out.sc_area_a <- g.F.area.(c) * ma;
  out.sc_area_b <- g.F.area.(c) * mb;
  for a = 0 to Hypergraph.demand_arity - 1 do
    let d = g.F.demand.((c * Hypergraph.demand_arity) + a) in
    out.sc_res_a.(a) <- d * ma;
    out.sc_res_b.(a) <- d * mb
  done

let reset_scratch (out : scratch) =
  out.sc_cut <- 0;
  out.sc_term_a <- 0;
  out.sc_term_b <- 0;
  out.sc_area_a <- 0;
  out.sc_area_b <- 0;
  Array.fill out.sc_res_a 0 Hypergraph.demand_arity 0;
  Array.fill out.sc_res_b 0 Hypergraph.demand_arity 0

let check_mask t c m =
  if not (Bitvec.subset m (full_mask t c)) then
    invalid_arg "Partition_state: mask not a subset of the cell's outputs"

let eval_into t c new_mask (out : scratch) =
  check_mask t c new_mask;
  if Bitvec.equal new_mask t.out_on_b.(c) then reset_scratch out
  else begin
    net_deltas t c new_mask;
    scratch_totals t c new_mask out
  end

(* Connection-count category: gains of candidate operations on a cell
   depend on an incident net's side counts only through min(count, 2),
   because any single-cell mask change shifts each side count by at most
   one and every per-net contribution (cut_of / term_of) tests counts
   against 0 over a +-1 neighbourhood. A net whose categories are
   unchanged on both sides therefore leaves every neighbour's candidate
   deltas — hence its best op — untouched. *)
let cat x = if x > 2 then 2 else x

let apply t c new_mask =
  check_mask t c new_mask;
  if Bitvec.equal new_mask t.out_on_b.(c) then t.ch_len <- 0
  else begin
    net_deltas t c new_mask;
    let d = t.sd in
    scratch_totals t c new_mask d;
    t.ch_len <- 0;
    for i = 0 to t.s_len - 1 do
      let n = t.s_nets.(i) in
      let ca = t.conn_a.(n) and cb = t.conn_b.(n) in
      let da = t.s_da.(i) and db = t.s_db.(i) in
      if cat ca <> cat (ca + da) || cat cb <> cat (cb + db) then begin
        t.ch_nets.(t.ch_len) <- n;
        t.ch_len <- t.ch_len + 1
      end;
      t.conn_a.(n) <- ca + da;
      t.conn_b.(n) <- cb + db
    done;
    t.out_on_b.(c) <- new_mask;
    t.cut <- t.cut + d.sc_cut;
    t.term_a <- t.term_a + d.sc_term_a;
    t.term_b <- t.term_b + d.sc_term_b;
    for a = 0 to Hypergraph.demand_arity - 1 do
      t.res_a.(a) <- t.res_a.(a) + d.sc_res_a.(a);
      t.res_b.(a) <- t.res_b.(a) + d.sc_res_b.(a)
    done
  end

let iter_changed_nets t f =
  for i = 0 to t.ch_len - 1 do
    f t.ch_nets.(i)
  done

let check_consistency t =
  let r = counted t.g t.out_on_b in
  let pair name got want =
    if got = want then Ok ()
    else Error (Printf.sprintf "%s: tracked %d, recomputed %d" name got want)
  in
  let ( >>= ) r f = match r with Ok () -> f () | Error _ as e -> e in
  pair "cut" t.cut r.cut >>= fun () ->
  pair "term_a" t.term_a r.term_a >>= fun () ->
  pair "term_b" t.term_b r.term_b >>= fun () ->
  let rec axes a =
    if a >= Hypergraph.demand_arity then Ok ()
    else
      pair (Printf.sprintf "res_a.(%d)" a) t.res_a.(a) r.res_a.(a) >>= fun () ->
      pair (Printf.sprintf "res_b.(%d)" a) t.res_b.(a) r.res_b.(a) >>= fun () ->
      axes (a + 1)
  in
  axes 0
