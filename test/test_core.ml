(* Tests for the paper's core algorithms: replication potential (eq. 4-6),
   the unified gain model (eq. 7-11), gain buckets, F-M with functional
   replication, and the k-way heterogeneous-device driver. *)

open Core

let checki = Alcotest.check Alcotest.int
let flat = Test_util.flat
let checkb = Alcotest.check Alcotest.bool
let qc t = QCheck_alcotest.to_alcotest t

(* ------------------------------------------------------------------ *)
(* Replication potential                                              *)
(* ------------------------------------------------------------------ *)

let test_psi_fig1 () =
  (* Fig. 1: A_X = [1 1 0], A_Y = [0 1 1] -> psi = 2. *)
  let psi =
    Replication_potential.of_supports
      [| Bitvec.of_list [ 0; 1 ]; Bitvec.of_list [ 1; 2 ] |]
  in
  checki "Fig. 1 cell" 2 psi

(* The list formulation of [of_supports] before its O(m) rewrite, kept as
   the reference: each output's vector minus the union of all the
   others. *)
let psi_reference supports =
  let m = Array.length supports in
  if m <= 1 then 0
  else begin
    let psi = ref 0 in
    Array.iteri
      (fun i a_i ->
        let others =
          Array.to_list supports
          |> List.filteri (fun j _ -> j <> i)
          |> List.fold_left Bitvec.union Bitvec.empty
        in
        psi := !psi + Bitvec.norm (Bitvec.diff a_i others))
      supports;
    !psi
  end

let qcheck_psi_matches_reference =
  (* Random support arrays: 0-62 outputs over 0-62 input pins. *)
  let gen =
    QCheck.Gen.(
      pair (int_range 0 Bitvec.max_width) (int_range 0 Bitvec.max_width)
      >>= fun (m, width) ->
      array_size (return m)
        (map (fun x -> x land Bitvec.full width) (int_bound max_int)))
  in
  QCheck.Test.make ~name:"O(m) psi = list reference" ~count:300
    (QCheck.make gen) (fun supports ->
      Replication_potential.of_supports supports = psi_reference supports)

(* [cell_nets] returns the cell's memo; it must still be exactly the sorted
   distinct union of its input and output nets. *)
let check_cell_nets label h =
  Array.iter
    (fun (c : Hypergraph.cell) ->
      let want =
        List.sort_uniq compare
          (Array.to_list c.Hypergraph.inputs @ Array.to_list c.Hypergraph.outputs)
      in
      if Array.to_list (Hypergraph.cell_nets c) <> want then
        Alcotest.failf "%s: cell_nets of cell %d differs from the reference"
          label c.Hypergraph.id)
    h.Hypergraph.cells

let test_cell_nets_memo () =
  List.iter
    (fun e ->
      check_cell_nets e.Experiments.Suite.name
        (Lazy.force e.Experiments.Suite.hypergraph))
    (Experiments.Suite.all ());
  let s9234 = Option.get (Experiments.Suite.find "s9234") in
  let coarse, _ =
    Coarsen.coarsen ~rng:(Netlist.Rng.create 1)
      (Lazy.force s9234.Experiments.Suite.hypergraph)
  in
  check_cell_nets "s9234, one coarsened level" coarse

let qcheck_cell_nets_memo =
  QCheck.Test.make ~name:"cell_nets = sorted inputs ++ outputs" ~count:30
    QCheck.(pair small_int (int_range 4 40))
    (fun (seed, n_cells) ->
      let h = Test_util.random_hypergraph seed n_cells in
      check_cell_nets "random" h;
      check_cell_nets "random, coarsened"
        (fst (Coarsen.coarsen ~rng:(Netlist.Rng.create seed) h));
      true)

let test_psi_fig2 () =
  (* Fig. 2: A_X1 = [1 1 1 1 0], A_X2 = [0 0 0 1 1] -> psi = 4. *)
  let psi =
    Replication_potential.of_supports
      [| Bitvec.of_list [ 0; 1; 2; 3 ]; Bitvec.of_list [ 3; 4 ] |]
  in
  checki "Fig. 2 cell" 4 psi

let test_psi_single_output () =
  (* Eq. (4): psi = 0 when m = 1, regardless of inputs. *)
  checki "single output" 0
    (Replication_potential.of_supports [| Bitvec.of_list [ 0; 1; 2; 3 ] |])

let test_psi_disjoint_and_identical () =
  checki "disjoint supports: all inputs private" 4
    (Replication_potential.of_supports
       [| Bitvec.of_list [ 0; 1 ]; Bitvec.of_list [ 2; 3 ] |]);
  checki "identical supports: psi 0" 0
    (Replication_potential.of_supports
       [| Bitvec.of_list [ 0; 1 ]; Bitvec.of_list [ 0; 1 ] |]);
  checki "three outputs" 3
    (Replication_potential.of_supports
       [|
         Bitvec.of_list [ 0; 1 ]; Bitvec.of_list [ 1; 2 ]; Bitvec.of_list [ 3 ];
       |])

let test_distribution () =
  let h = Test_util.fig4_hypergraph () in
  let d = Replication_potential.distribution h in
  checki "total" 8 d.Replication_potential.total;
  (* M is the only multi-output cell; its psi is 5 (all inputs private). *)
  checki "single-output cells" 7 d.Replication_potential.single_output;
  Alcotest.check
    Alcotest.(list (pair int int))
    "multi by psi" [ (5, 1) ] d.Replication_potential.multi_by_psi;
  checki "r_0 counts all multi-output cells" 1
    (Replication_potential.max_replication_factor d ~threshold:0);
  checki "r_5" 1 (Replication_potential.max_replication_factor d ~threshold:5);
  checki "r_6" 0 (Replication_potential.max_replication_factor d ~threshold:6)

let test_replicable_threshold () =
  let g = flat (Test_util.fig4_hypergraph ()) in
  (* Cell 0 is M, cell 6 the single-output RX1. *)
  checkb "M at T=0" true (Replication_potential.replicable ~threshold:0 g 0);
  checkb "M at T=5" true (Replication_potential.replicable ~threshold:5 g 0);
  checkb "M at T=6" false (Replication_potential.replicable ~threshold:6 g 0);
  checkb "single-output never" false
    (Replication_potential.replicable ~threshold:0 g 6)

(* ------------------------------------------------------------------ *)
(* Gain model                                                         *)
(* ------------------------------------------------------------------ *)

module Reference_gain = References.Reference_gain

(* The candidate masks F-M scores for cell [c], in generation order. *)
let candidates st ~replication c =
  let acc = ref [] in
  Fm.iter_masks st ~replication c ~f:(fun m -> acc := m :: !acc);
  List.rev !acc

(* Whether [eval_into]'s cut and terminal deltas for setting cell [c]'s
   mask to [m] equal the reference's from-scratch recount of the state
   before and after, over the hypergraph [h] the state's graph is the
   flat form of. *)
let recount_agrees h st c m =
  let after =
    Partition_state.create_with_masks (Partition_state.graph st)
      ~masks:(fun c' -> if c' = c then m else Partition_state.mask st c')
  in
  let cut0, ta0, tb0 = Reference_gain.totals h st
  and cut1, ta1, tb1 = Reference_gain.totals h after in
  let d = Test_util.eval st c m in
  d.Partition_state.sc_cut = cut1 - cut0
  && d.Partition_state.sc_term_a = ta1 - ta0
  && d.Partition_state.sc_term_b = tb1 - tb0

let flip_output current o =
  if Bitvec.mem o current then Bitvec.remove o current
  else Bitvec.add o current

let test_gain_fig4_golden () =
  (* The paper's worked example: G_m = -1, G_tr = -2, G_r = +2, from the
     closed forms and, for the move and the migrations, from eval_into. *)
  let h, st = Test_util.fig4_state () in
  let v = Reference_gain.vectors h st 0 in
  checki "G_m (eq. 7)" (-1) (Reference_gain.single_move v);
  checki "G_tr (eq. 8)" (-2) (Reference_gain.traditional_replication v);
  (match Reference_gain.functional_replication v ~threshold:0 with
  | Some (g, o) ->
      checki "G_r (eq. 11)" 2 g;
      checki "best output is X2" 1 o
  | None -> Alcotest.fail "functional replication should be available");
  (* Vector values, for the record: 2 cut inputs, both critical. *)
  checki "|C_I|" 2 (Bitvec.norm v.Reference_gain.c_i);
  checki "|C_O|" 1 (Bitvec.norm v.Reference_gain.c_o);
  checki "n" 5 v.Reference_gain.n_inputs;
  let gain m = -(Test_util.eval st 0 m).Partition_state.sc_cut in
  checki "eval_into: move" (-1) (gain (Partition_state.full_mask st 0));
  checki "eval_into: migrate X1" (-3) (gain (Bitvec.singleton 0));
  checki "eval_into: migrate X2" 2 (gain (Bitvec.singleton 1));
  List.iter
    (fun m ->
      checkb
        (Printf.sprintf "eval_into = recount for mask %d" m)
        true (recount_agrees h st 0 m))
    (candidates st ~replication:(`Functional 0) 0)

let test_gain_threshold_blocks () =
  let h, st = Test_util.fig4_state () in
  let repl c ~threshold =
    Reference_gain.functional_replication (Reference_gain.vectors h st c)
      ~threshold
  in
  checkb "T=6 blocks M" true (repl 0 ~threshold:6 = None);
  checkb "single-output cell can never replicate" true
    (repl 6 ~threshold:0 = None)

let qcheck_formula_matches_eval =
  (* Eq. (7) must equal the exact cut delta of a whole-cell move for every
     single cell, on arbitrary random states, and the move's cut and
     terminal deltas the reference's recount. *)
  QCheck.Test.make ~name:"eq. 7 = exact move delta" ~count:80
    QCheck.(pair small_int (int_range 4 20))
    (fun (seed, n_cells) ->
      let h = Test_util.random_hypergraph seed n_cells in
      let rng = Netlist.Rng.create (seed + 77) in
      let st =
        Partition_state.create (flat h) ~init_on_b:(fun _ ->
            Netlist.Rng.bool rng)
      in
      let ok = ref true in
      for c = 0 to Hypergraph.num_cells h - 1 do
        match Partition_state.single_side st c with
        | None -> ()
        | Some _ ->
            let v = Reference_gain.vectors h st c in
            let full = Partition_state.full_mask st c in
            let flip = Bitvec.complement (Bitvec.norm full) (Partition_state.mask st c) in
            let d = Test_util.eval st c flip in
            if Reference_gain.single_move v <> -d.Partition_state.sc_cut then
              ok := false;
            if not (recount_agrees h st c flip) then ok := false
      done;
      !ok)

let qcheck_functional_gain_positive_cases =
  (* Every output's migration gain (eqs. 9-10) must equal the exact delta
     of applying it, so G_r (eq. 11) does too; the migration's cut and
     terminal deltas must equal the reference's recount. *)
  QCheck.Test.make ~name:"eq. 11 = exact migration" ~count:60
    QCheck.(pair small_int (int_range 4 16))
    (fun (seed, n_cells) ->
      let h = Test_util.random_hypergraph seed n_cells in
      let rng = Netlist.Rng.create (seed + 99) in
      let st =
        Partition_state.create (flat h) ~init_on_b:(fun _ ->
            Netlist.Rng.bool rng)
      in
      let ok = ref true in
      for c = 0 to Hypergraph.num_cells h - 1 do
        let v = Reference_gain.vectors h st c in
        let current = Partition_state.mask st c in
        let exact o =
          -(Test_util.eval st c (flip_output current o)).Partition_state.sc_cut
        in
        match Reference_gain.functional_replication v ~threshold:0 with
        | None -> ()
        | Some (g, o) ->
            if g <> exact o then ok := false;
            for o = 0 to v.Reference_gain.n_outputs - 1 do
              if Reference_gain.migration v o <> exact o then ok := false;
              if not (recount_agrees h st c (flip_output current o)) then
                ok := false
            done
      done;
      !ok)

let test_candidate_operations () =
  (* The masks F-M scores, in the order its first-wins tie-break reads:
     the complement, the per-output flips in ascending order, then
     un-replication to empty and then to full. Replication adds one
     migration per output; once replicated, split adjustment and
     un-replication appear whatever the mode. *)
  let masks = Alcotest.(check (list int)) in
  let _, st = Test_util.fig4_state () in
  masks "M single, no replication" [ 0b11 ]
    (candidates st ~replication:`None 0);
  masks "M single, T=0" [ 0b11; 0b01; 0b10 ]
    (candidates st ~replication:(`Functional 0) 0);
  masks "M single, T=6 (psi 5)" [ 0b11 ]
    (candidates st ~replication:(`Functional 6) 0);
  (* Replicated with X2 on B: its flips regenerate full and empty, so the
     un-replication tail adds nothing. *)
  Partition_state.apply st 0 (Bitvec.singleton 1);
  masks "M replicated, no replication" [ 0b01; 0b11; 0b00 ]
    (candidates st ~replication:`None 0);
  masks "M replicated, T=0" [ 0b01; 0b11; 0b00 ]
    (candidates st ~replication:(`Functional 0) 0);
  (* A four-output cell split two and two: every part of the order. *)
  let h =
    Hypergraph.create ~num_nets:8 ~external_nets:[ 0; 1; 2; 3 ]
      [
        Test_util.spec "W" [ 0; 1; 2; 3 ] [ 4; 5; 6; 7 ]
          (List.init 4 Bitvec.singleton);
      ]
  in
  let st = Partition_state.create_with_masks (flat h) ~masks:(fun _ -> 0b0110) in
  List.iter
    (fun replication ->
      masks "W replicated" [ 0b1001; 0b0111; 0b0100; 0b0010; 0b1110; 0; 0b1111 ]
        (candidates st ~replication 0))
    [ `None; `Functional 0 ]

let test_no_duplicate_candidates () =
  (* Satellite of the incremental engine: iter_masks generates every
     candidate exactly once at the source (no post-hoc dedup), never the
     current mask, covering output counts m = 1, 2, 3 in both single-side
     and replicated states under both replication modes. *)
  let h = Test_util.random_hypergraph 3 20 in
  let n = Hypergraph.num_cells h in
  let outs c = Array.length (Hypergraph.cell h c).Hypergraph.outputs in
  List.iter
    (fun m ->
      checkb
        (Printf.sprintf "fixture covers m=%d" m)
        true
        (Array.exists (fun c -> outs c = m) (Array.init n Fun.id)))
    [ 1; 2; 3 ];
  let rng = Netlist.Rng.create 17 in
  for trial = 0 to 5 do
    let st =
      Partition_state.create (flat h) ~init_on_b:(fun _ -> Netlist.Rng.bool rng)
    in
    if trial > 0 then
      for c = 0 to n - 1 do
        if Netlist.Rng.int rng 3 = 0 then
          Partition_state.apply st c
            (Test_util.random_mask rng (Partition_state.full_mask st c))
      done;
    List.iter
      (fun replication ->
        for c = 0 to n - 1 do
          let masks = candidates st ~replication c in
          let uniq = List.sort_uniq compare masks in
          checki "no duplicate candidates" (List.length masks)
            (List.length uniq);
          checkb "current mask never generated" false
            (List.exists (Bitvec.equal (Partition_state.mask st c)) masks)
        done)
      [ `None; `Functional 0 ]
  done

(* ------------------------------------------------------------------ *)
(* Bucket                                                             *)
(* ------------------------------------------------------------------ *)

let test_bucket_basics () =
  let b = Bucket.create ~num_items:10 ~max_gain:5 in
  checki "empty" 0 (Bucket.cardinal b);
  Bucket.insert b 3 2;
  Bucket.insert b 4 (-1);
  Bucket.insert b 5 2;
  checki "cardinal" 3 (Bucket.cardinal b);
  checkb "mem" true (Bucket.mem b 3);
  checki "gain" 2 (Bucket.gain b 3);
  (* LIFO at the top gain level: 5 inserted after 3. *)
  checki "LIFO top" 5 (Bucket.find_best b (fun _ -> true));
  (* Predicate skips. *)
  checki "skips to lower gain" 4
    (Bucket.find_best b (fun i -> i <> 5 && i <> 3));
  Bucket.remove b 5;
  checki "after removal" 3 (Bucket.find_best b (fun _ -> true));
  Bucket.update b 4 5;
  checki "after update" 4 (Bucket.find_best b (fun _ -> true))

let test_bucket_clamping () =
  let b = Bucket.create ~num_items:4 ~max_gain:3 in
  Bucket.insert b 0 100;
  Bucket.insert b 1 (-100);
  checki "stored gain unclamped" 100 (Bucket.gain b 0);
  checki "clamped ordering works" 0 (Bucket.find_best b (fun _ -> true));
  Bucket.remove b 0;
  checki "negative clamp" 1 (Bucket.find_best b (fun _ -> true))

let test_bucket_errors () =
  let b = Bucket.create ~num_items:4 ~max_gain:3 in
  Bucket.insert b 0 1;
  Alcotest.check_raises "double insert"
    (Invalid_argument "Bucket.insert: item already present") (fun () ->
      Bucket.insert b 0 2);
  checkb "gain of absent raises" true
    (match Bucket.gain b 3 with exception Not_found -> true | _ -> false);
  Bucket.remove b 3 (* no-op *);
  Bucket.clear b;
  checki "cleared" 0 (Bucket.cardinal b)

let test_bucket_update_fast_path_order () =
  (* An update that leaves the clamped gain unchanged must not unlink /
     relink, so it preserves the item's position within its slot and does
     not refresh its LIFO recency. *)
  let best b = Bucket.find_best b (fun _ -> true) in
  let b = Bucket.create ~num_items:8 ~max_gain:3 in
  Bucket.insert b 1 2;
  Bucket.insert b 2 2;
  checki "LIFO before update" 2 (best b);
  Bucket.update b 1 2;
  checki "same-gain update of 1 keeps 2 first" 2 (best b);
  Bucket.update b 2 2;
  checki "same-gain update of 2 keeps its place" 2 (best b);
  (* Same clamped slot, different stored gain: 100 and 50 both clamp to
     +3. The slot order stays; the unclamped gain is refreshed. *)
  Bucket.insert b 3 100;
  Bucket.insert b 4 100;
  checki "4 most recent in top slot" 4 (best b);
  Bucket.update b 4 50;
  checki "same-slot update keeps 4 first" 4 (best b);
  checki "stored gain refreshed" 50 (Bucket.gain b 4);
  Bucket.update b 3 60;
  checki "same-slot update of non-head keeps order" 4 (best b);
  (* A slot-changing round trip is a relink: recency refreshed. *)
  Bucket.update b 3 1;
  Bucket.update b 3 100;
  checki "slot-changing round trip refreshes recency" 3 (best b)

let test_bucket_top_decay_and_interleaving () =
  let best b pred = Bucket.find_best b pred in
  let b = Bucket.create ~num_items:8 ~max_gain:4 in
  (* Clamping at both extremes. *)
  Bucket.insert b 0 1000;
  Bucket.insert b 1 (-1000);
  checki "positive clamp stores raw gain" 1000 (Bucket.gain b 0);
  checki "negative clamp stores raw gain" (-1000) (Bucket.gain b 1);
  (* Removing the only top-slot item: the lazy top pointer must decay
     past the emptied slots to the survivors. *)
  Bucket.remove b 0;
  checki "top decays to bottom slot" 1 (best b (fun _ -> true));
  (* Interleaved inserts/removes/updates across slots. *)
  Bucket.insert b 2 0;
  Bucket.insert b 3 4;
  Bucket.update b 3 (-4);
  checki "after top item drops to bottom" 2 (best b (fun _ -> true));
  Bucket.update b 1 10;
  checki "bottom item raised to clamped top" 1 (best b (fun _ -> true));
  Bucket.remove b 1;
  Bucket.remove b 2;
  checki "decay again after removals" 3 (best b (fun _ -> true));
  Bucket.remove b 3;
  checki "empty scan finds nothing" (-1) (best b (fun _ -> true));
  checki "empty cardinal" 0 (Bucket.cardinal b)

let qcheck_bucket_matches_model =
  (* The bucket against a naive map model that encodes the documented
     contract: items keyed by clamped gain; ties broken by
     most-recently-moved-into-the-slot; an update that keeps the clamped
     gain does not refresh recency; update inserts when absent. *)
  QCheck.Test.make ~name:"bucket matches naive map model" ~count:150
    QCheck.(pair small_int (int_range 1 6))
    (fun (seed, max_gain) ->
      let rng = Netlist.Rng.create (seed + 1) in
      let num_items = 12 in
      let b = Bucket.create ~num_items ~max_gain in
      let model = Array.make num_items None in
      let tick = ref 0 in
      let clamp g = max (-max_gain) (min max_gain g) in
      let ok = ref true in
      for _ = 1 to 400 do
        let item = Netlist.Rng.int rng num_items in
        let g = Netlist.Rng.int rng ((4 * max_gain) + 3) - (2 * max_gain) - 1 in
        match Netlist.Rng.int rng 5 with
        | 0 ->
            if model.(item) = None then begin
              Bucket.insert b item g;
              incr tick;
              model.(item) <- Some (g, !tick)
            end
        | 1 ->
            Bucket.remove b item;
            model.(item) <- None
        | 2 -> (
            Bucket.update b item g;
            match model.(item) with
            | Some (old, r) when clamp old = clamp g ->
                model.(item) <- Some (g, r)
            | _ ->
                incr tick;
                model.(item) <- Some (g, !tick))
        | 3 ->
            let allow = Array.init num_items (fun _ -> Netlist.Rng.bool rng) in
            let expected =
              let best = ref None in
              Array.iteri
                (fun i entry ->
                  match entry with
                  | Some (g, r) when allow.(i) ->
                      let key = (clamp g, r) in
                      (match !best with
                      | Some (_, bkey) when bkey >= key -> ()
                      | _ -> best := Some (i, key))
                  | _ -> ())
                model;
              match !best with Some (i, _) -> i | None -> -1
            in
            if Bucket.find_best b (fun i -> allow.(i)) <> expected then
              ok := false
        | _ ->
            if Bucket.mem b item <> (model.(item) <> None) then ok := false;
            (match model.(item) with
            | Some (g, _) -> if Bucket.gain b item <> g then ok := false
            | None -> ());
            let card =
              Array.fold_left
                (fun acc e -> if e = None then acc else acc + 1)
                0 model
            in
            if Bucket.cardinal b <> card then ok := false
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* F-M                                                                *)
(* ------------------------------------------------------------------ *)

let mapped_hypergraph circuit = Techmap.Mapper.to_hypergraph (Techmap.Mapper.map circuit)

let test_fm_improves_and_respects_balance () =
  let h = mapped_hypergraph (Netlist.Generator.alu ~bits:8 ()) in
  let total = Hypergraph.total_area h in
  let cfg = Fm.balance_config ~total_area:total () in
  let rng = Netlist.Rng.create 5 in
  let st = Fm.random_state rng h in
  let cut0 = Partition_state.cut st in
  let pen, cut, _ = Fm.run cfg st in
  checki "feasible" 0 pen;
  checkb "cut not worse" true (cut <= cut0);
  checkb "consistent" true (Result.is_ok (Partition_state.check_consistency st));
  let cap = int_of_float (ceil (1.10 *. float_of_int total /. 2.0)) in
  checkb "balance" true
    (Partition_state.area st Partition_state.A <= cap
    && Partition_state.area st Partition_state.B <= cap)

let test_fm_replication_beats_plain_on_fig4 () =
  (* On the Fig. 4 fixture a replication-enabled pass can reach cut 1;
     plain moves bottom out higher from the same start. *)
  let _, st_plain = Test_util.fig4_state () in
  let _, st_repl = Test_util.fig4_state () in
  let total = 8 in
  let plain_cfg = Fm.balance_config ~slack:0.6 ~total_area:total () in
  let repl_cfg =
    Fm.balance_config ~slack:0.6 ~replication:(`Functional 0) ~total_area:total ()
  in
  let _, cut_plain, _ = Fm.run plain_cfg st_plain in
  let _, cut_repl, _ = Fm.run repl_cfg st_repl in
  checkb "replication at least as good" true (cut_repl <= cut_plain);
  checkb "replication reaches cut <= 1" true (cut_repl <= 1)

let test_fm_replication_respects_threshold () =
  (* With a threshold above every cell's psi, no replica may appear. *)
  let h = mapped_hypergraph (Netlist.Generator.multiplier ~bits:6 ()) in
  let cfg =
    Fm.balance_config ~replication:(`Functional 1000)
      ~total_area:(Hypergraph.total_area h) ()
  in
  let rng = Netlist.Rng.create 3 in
  let st = Fm.random_state rng h in
  ignore (Fm.run cfg st);
  checki "no replicas at absurd threshold" 0 (Partition_state.num_replicated st)

let test_fm_replication_reduces_cut_on_clustered () =
  (* The paper's Table III effect, in miniature: over a few seeds,
     replication never loses and usually wins on a clustered sequential
     circuit. *)
  let c =
    Netlist.Generator.clustered
      {
        Netlist.Generator.default_clustered with
        clusters = 6;
        gates_per_cluster = 40;
        seed = 3;
      }
  in
  let h = mapped_hypergraph c in
  let total = Hypergraph.total_area h in
  let best cfg =
    let best = ref max_int in
    for seed = 1 to 5 do
      let st = Fm.random_state (Netlist.Rng.create seed) h in
      let pen, cut, _ = Fm.run cfg st in
      if pen = 0 && cut < !best then best := cut
    done;
    !best
  in
  let plain = best (Fm.balance_config ~total_area:total ()) in
  let repl =
    best (Fm.balance_config ~replication:(`Functional 0) ~total_area:total ())
  in
  checkb "plain found a feasible cut" true (plain < max_int);
  checkb "replication cut <= plain cut" true (repl <= plain)

let qcheck_fm_leaves_consistent_state =
  QCheck.Test.make ~name:"F-M leaves a consistent state" ~count:20
    QCheck.(pair small_int (int_range 8 30))
    (fun (seed, n_cells) ->
      let h = Test_util.random_hypergraph seed n_cells in
      let cfg =
        Fm.balance_config ~replication:(`Functional 0) ~slack:0.3
          ~total_area:(Hypergraph.total_area h) ()
      in
      let st = Fm.random_state (Netlist.Rng.create (seed + 5)) h in
      let cut0 = Partition_state.cut st in
      let _, cut, _ = Fm.run cfg st in
      Result.is_ok (Partition_state.check_consistency st) && cut <= cut0)

let qcheck_incremental_gains_exact =
  (* The tentpole invariant of the incremental engine: after every applied
     move, rescoring only the cells on nets that
     Partition_state.apply reported state-changed (a side's connection
     category min(count, 2) crossed 0<->1 or 1<->2) leaves every cell's
     cached best op equal to a from-scratch recomputation. Maintained here
     externally with the engine's exact selection fold, then audited over
     the WHOLE cell set after every move — so a single missed invalidation
     anywhere fails the property. Runs under both replication modes. *)
  QCheck.Test.make ~name:"incremental rescoring = from-scratch best op"
    ~count:20
    QCheck.(triple small_int (int_range 8 24) bool)
    (fun (seed, n_cells, functional) ->
      let replication = if functional then `Functional 0 else `None in
      let h = Test_util.random_hypergraph seed n_cells in
      let rng = Netlist.Rng.create (seed + 31) in
      let st =
        Partition_state.create (flat h) ~init_on_b:(fun _ -> Netlist.Rng.bool rng)
      in
      let n = Hypergraph.num_cells h in
      (* Engine-identical selection: maximise gain, tie-break on the
         smaller area growth, first-generated candidate wins the rest. *)
      let best c =
        let acc = ref None in
        Fm.iter_masks st ~replication c ~f:(fun m ->
            let d = Test_util.eval st c m in
            let g = -d.Partition_state.sc_cut in
            let tie =
              -(d.Partition_state.sc_area_a + d.Partition_state.sc_area_b)
            in
            match !acc with
            | Some (_, bg, bt) when bg > g || (bg = g && bt >= tie) -> ()
            | _ -> acc := Some (m, g, tie));
        !acc
      in
      let cached = Array.init n best in
      let ok = ref true in
      for _ = 1 to 3 * n do
        let c = Netlist.Rng.int rng n in
        let full = Partition_state.full_mask st c in
        let m =
          if functional then Test_util.random_mask rng full
          else Bitvec.complement (Bitvec.norm full) (Partition_state.mask st c)
        in
        Partition_state.apply st c m;
        (* The engine's maintenance step: the moved cell plus every cell
           on a state-changed net. *)
        cached.(c) <- best c;
        Partition_state.iter_changed_nets st (fun net ->
            Array.iter
              (fun cell -> cached.(cell) <- best cell)
              h.Hypergraph.net_cells.(net));
        (* The audit: every cell, not just the rescored ones. *)
        for cell = 0 to n - 1 do
          if cached.(cell) <> best cell then ok := false
        done
      done;
      !ok)

let test_fm_oracle_mode_identical () =
  (* Oracle mode recomputes every affected cell's best op from scratch
     after every applied move and compares with the incremental cache
     (failwith on mismatch); its decisions are byte-identical to a plain
     run by construction — this pins both halves of that contract. *)
  let h = mapped_hypergraph (Netlist.Generator.alu ~bits:8 ()) in
  let total = Hypergraph.total_area h in
  let cfg =
    Fm.balance_config ~replication:(`Functional 0) ~total_area:total ()
  in
  let st = Fm.random_state (Netlist.Rng.create 7) h in
  let sto = Fm.random_state (Netlist.Rng.create 7) h in
  let score = Fm.run cfg st in
  let score_o = Fm.run (Fm.with_oracle cfg) sto in
  checkb "oracle run returns the same score" true (score = score_o);
  for c = 0 to Hypergraph.num_cells h - 1 do
    if not (Bitvec.equal (Partition_state.mask st c) (Partition_state.mask sto c))
    then Alcotest.failf "oracle mode diverged at cell %d" c
  done

let s9234_hypergraph () =
  Lazy.force (Option.get (Experiments.Suite.find "s9234")).Experiments.Suite.hypergraph

(* The window of a one-off device: CLBs in [[lo, hi]], [terminals] IOBs.
   The lower utilization bound sits half a CLB under [lo], so its ceiling
   is [lo] whatever the float rounding. *)
let device_window ?relax_low ~lo ~hi ~terminals () =
  let util_low = max 0.0 ((float_of_int lo -. 0.5) /. float_of_int hi) in
  Fpga.Objective.window ?relax_low Fpga.Objective.paper
    (Fpga.Device.make ~name:"window" ~capacity:hi ~terminals ~price:1.0
       ~util_low ())

let alloc_config ?(threshold = 1) h =
  let total = Hypergraph.total_area h in
  let a = device_window ~lo:(total / 3) ~hi:(total / 2) ~terminals:64 () in
  checki "window lo" (total / 3) a.lo.(Fpga.Resource.clb);
  checki "window hi" (total / 2) a.hi.(Fpga.Resource.clb);
  Fm.window_config ~replication:(`Functional threshold) ~a ()

(* Every (cell, mask) F-M would evaluate in [st], scored through the same
   enumerate-and-evaluate path the engine's rescoring takes. *)
let check_candidates_allocation_free label st ~replication =
  let g = Partition_state.graph st in
  let sc = Partition_state.make_scratch () in
  let cur = ref 0 and evaluated = ref 0 and partial = ref 0 in
  let consider mask =
    Partition_state.eval_into st !cur mask sc;
    incr evaluated;
    if
      (not (Bitvec.is_empty mask))
      && not (Bitvec.equal mask (Partition_state.full_mask st !cur))
    then incr partial
  in
  let sweep () =
    for c = 0 to Hypergraph.Flat.num_cells g - 1 do
      cur := c;
      Fm.iter_masks st ~replication c ~f:consider
    done
  in
  sweep ();
  checkb (label ^ ": replication candidates evaluated") true (!partial > 0);
  let words = Test_util.words_during sweep in
  if words <> 0.0 then
    Alcotest.failf "%s: %d candidate evaluations allocated %.0f words" label
      !evaluated words

let test_fm_candidates_allocation_free () =
  let h = s9234_hypergraph () in
  let cfg = alloc_config h in
  let st = Fm.random_state (Netlist.Rng.create 1) h in
  ignore (Fm.run cfg st);
  check_candidates_allocation_free "s9234" st ~replication:cfg.Fm.replication;
  (* Cluster cells wider than 4 outputs: the coarse solve's case.
     Clusters are opaque (psi = 0), so threshold 0 is what makes F-M
     score their partial masks. *)
  let rng = Netlist.Rng.create 2 in
  let coarse =
    List.fold_left (fun h _ -> fst (Coarsen.coarsen ~rng h)) h [ 1; 2; 3 ]
  in
  checkb "some cluster has more than 4 outputs" true
    (Array.exists
       (fun c -> Array.length c.Hypergraph.outputs > 4)
       coarse.Hypergraph.cells);
  let ccfg = alloc_config ~threshold:0 coarse in
  let cst = Fm.random_state (Netlist.Rng.create 1) coarse in
  ignore (Fm.run ccfg cst);
  check_candidates_allocation_free "s9234 clusters" cst
    ~replication:ccfg.Fm.replication

(* The measured runs reuse the workspace (bucket, op registers, stamps,
   trail) the counting runs left in this domain's slot, and score
   prefixes into registers, so a move allocates nothing; what is left is
   per run: the closures [Fm.run] builds and its result tuple. One F-M
   run per seed, each from a fresh random state: a counting sweep under a
   collecting sink, then a measured sweep under the no-op sink (telemetry
   never steers the engine, so both apply the same moves). Returns the
   counting sweep's applied ops, rescored cells and passes, summed over
   the runs. *)
let check_words_per_move label h cfg ~seeds ~bound =
  let states () =
    List.map (fun seed -> Fm.random_state (Netlist.Rng.create seed) h) seeds
  in
  let obs = Obs.create () in
  List.iter (fun st -> ignore (Fm.run ~obs cfg st)) (states ());
  let counter k =
    Option.value ~default:0
      (List.assoc_opt k (Obs.snapshot obs).Obs.Snapshot.counters)
  in
  let applied = counter "fm.applied_ops" in
  checkb (label ^ ": the runs apply moves") true (applied > 0);
  let sts = states () in
  let words =
    Test_util.words_during (fun () ->
        List.iter (fun st -> ignore (Fm.run cfg st)) sts)
  in
  let per_move = words /. float_of_int applied in
  if per_move > bound then
    Alcotest.failf "%s: Fm.run allocated %.1f words per applied move (%d \
                    moves, bound %.0f)"
      label per_move applied bound;
  (applied, counter "fm.rescored_cells", counter "fm.passes")

(* The F-M hot-loop protocol: balance config with replication at
   threshold 0, one run per seed. Its counters pin the engine's decisions
   on c6288 and s38584: a change to the F-M inner loop that claims to
   leave the moves unchanged must keep them exactly. *)
let test_fm_run_words_per_move () =
  let h = s9234_hypergraph () in
  ignore
    (check_words_per_move "s9234" h (alloc_config h) ~seeds:[ 3 ] ~bound:1.0);
  let hotloop name ~seeds =
    let h =
      Lazy.force
        (Option.get (Experiments.Suite.find name)).Experiments.Suite.hypergraph
    in
    let cfg =
      Fm.balance_config ~replication:(`Functional 0)
        ~total_area:(Hypergraph.total_area h) ()
    in
    check_words_per_move name h cfg ~seeds ~bound:1.0
  in
  let counters = Alcotest.(triple int int int) in
  Alcotest.check counters "c6288 applied ops / rescored cells / passes"
    (617, 1_820, 5)
    (hotloop "c6288" ~seeds:[ 7 ]);
  Alcotest.check counters "s38584 applied ops / rescored cells / passes"
    (8_469, 43_291, 15)
    (hotloop "s38584" ~seeds:[ 7; 8; 9 ])

(* A chain of [n] buffers and one hub cell reading the first 40 chain
   nets: more cells than [random_hypergraph] makes in the property below,
   and a far higher maximum degree (41), so a workspace left by a run on
   it has more items and a wider bucket range. *)
let hub_hypergraph n =
  let buffers =
    List.init n (fun k ->
        Test_util.spec (Printf.sprintf "b%d" k) [ k ] [ k + 1 ]
          [ Bitvec.singleton 0 ])
  in
  let hub =
    Test_util.spec "hub" (List.init 40 (fun k -> k + 1)) [ n + 1 ]
      [ Bitvec.full 40 ]
  in
  Hypergraph.create ~num_nets:(n + 2) ~external_nets:[ 0 ] (buffers @ [ hub ])

(* [f ()] on a domain of its own, whose workspace slot starts empty. *)
let on_fresh_domain f = Domain.join (Domain.spawn f)

let qcheck_fm_staged_workspace_fresh =
  (* run_staged hands one workspace to both stages; each stage must see
     it exactly as fresh (stamps, op registers, locks, bucket), so the
     staged run equals two fresh runs on a copy, each on a new domain.
     With [leftover], the staged run's domain first runs F-M on a larger
     graph of higher degree, so it reuses a workspace with more items and
     a wider gain range than its own graph needs. The oracle (which makes
     identical decisions) on the staged side trips on a rescore a stale
     epoch stamp skipped, even when the skip happens not to change the
     outcome. *)
  QCheck.Test.make ~name:"run_staged = fresh plain run, then fresh run"
    ~count:100
    QCheck.(triple small_int (int_range 6 60) bool)
    (fun (seed, n_cells, leftover) ->
      let h = Test_util.random_hypergraph seed n_cells in
      let cfg =
        Fm.balance_config ~replication:(`Functional 0)
          ~total_area:(Hypergraph.total_area h) ()
      in
      let st = Fm.random_state (Netlist.Rng.create (seed + 1)) h in
      let fresh =
        Partition_state.create_with_masks (flat h) ~masks:(Partition_state.mask st)
      in
      let staged =
        on_fresh_domain (fun () ->
            (if leftover then
               let big = hub_hypergraph 150 in
               ignore
                 (Fm.run_staged
                    (Fm.balance_config ~replication:(`Functional 0)
                       ~total_area:(Hypergraph.total_area big) ())
                    (Fm.random_state (Netlist.Rng.create seed) big)));
            Fm.run_staged (Fm.with_oracle cfg) st)
      in
      on_fresh_domain (fun () ->
          ignore
            (Fm.run
               (Fm.balance_config ~total_area:(Hypergraph.total_area h) ())
               fresh));
      let score = on_fresh_domain (fun () -> Fm.run cfg fresh) in
      staged = score
      && List.for_all
           (fun c ->
             Bitvec.equal (Partition_state.mask st c)
               (Partition_state.mask fresh c))
           (List.init n_cells Fun.id))

(* Staged runs on different graphs at once, in two systhreads of one
   domain and in two domains, end exactly as when run one after another:
   same masks, score and applied-op count. *)
let test_fm_concurrent_runs () =
  let graphs =
    List.map
      (fun name ->
        Lazy.force
          (Option.get (Experiments.Suite.find name)).Experiments.Suite.hypergraph)
      [ "c6288"; "s9234" ]
  in
  let run h =
    let st = Fm.random_state (Netlist.Rng.create 5) h in
    let obs = Obs.create () in
    let score = Fm.run_staged ~obs (alloc_config h) st in
    let applied =
      List.assoc "fm.applied_ops" (Obs.snapshot obs).Obs.Snapshot.counters
    in
    ( score,
      applied,
      Array.init (Hypergraph.num_cells h) (Partition_state.mask st) )
  in
  let expected = List.map run graphs in
  let check how got =
    List.iteri
      (fun i ((s, a, m), (s', a', m')) ->
        let label = Printf.sprintf "%s, graph %d" how i in
        checkb (label ^ ": score") true (s = s');
        checki (label ^ ": fm.applied_ops") a a';
        checkb (label ^ ": masks") true (m = m'))
      (List.combine expected got)
  in
  let in_threads =
    List.map
      (fun h ->
        let r = ref None in
        (Thread.create (fun () -> r := Some (run h)) (), r))
      graphs
    |> List.map (fun (t, r) ->
           Thread.join t;
           Option.get !r)
  in
  check "systhreads" in_threads;
  let in_domains =
    List.map (fun h -> Domain.spawn (fun () -> run h)) graphs
    |> List.map Domain.join
  in
  check "domains" in_domains

let qcheck_fm_oracle_never_trips =
  (* The oracle cross-check aborts the run on any stale cached gain; it
     completing at all on random instances, under both replication
     modes, is the property. *)
  QCheck.Test.make ~name:"F-M oracle cross-check passes" ~count:12
    QCheck.(triple small_int (int_range 8 26) bool)
    (fun (seed, n_cells, functional) ->
      let h = Test_util.random_hypergraph seed n_cells in
      (* Slack 1.0 caps each side at the total area, which no side can
         exceed: every state is legal and the score is the cut alone. *)
      let cfg =
        Fm.with_oracle
          (Fm.balance_config ~slack:1.0
             ~replication:(if functional then `Functional 0 else `None)
             ~total_area:(Hypergraph.total_area h) ())
      in
      let st = Fm.random_state (Netlist.Rng.create (seed + 13)) h in
      let cut0 = Partition_state.cut st in
      let _, cut, _ = Fm.run cfg st in
      Result.is_ok (Partition_state.check_consistency st) && cut <= cut0)

let test_fm_staged_never_worse () =
  (* run_staged must match or beat plain F-M from the same start, on every
     seed, because replication extends a converged plain solution. *)
  let h = mapped_hypergraph (Netlist.Generator.alu ~bits:8 ()) in
  let total = Hypergraph.total_area h in
  let plain_cfg = Fm.balance_config ~total_area:total () in
  let repl_cfg =
    Fm.balance_config ~replication:(`Functional 0) ~total_area:total ()
  in
  for seed = 1 to 6 do
    let st1 = Fm.random_state (Netlist.Rng.create seed) h in
    let st2 = Fm.random_state (Netlist.Rng.create seed) h in
    let _, plain, _ = Fm.run plain_cfg st1 in
    let _, staged, _ = Fm.run_staged repl_cfg st2 in
    checkb "staged <= plain" true (staged <= plain)
  done

let test_fm_traditional_model_weaker () =
  (* With the traditional (all-inputs) replica connection rule -- the
     same F-M on the opaque form of the hypergraph -- the gains largely
     evaporate: the Fig. 1 motivation as a property. *)
  let c =
    Netlist.Generator.clustered
      { Netlist.Generator.default_clustered with clusters = 5; seed = 9 }
  in
  let h = mapped_hypergraph c in
  let total = Hypergraph.total_area h in
  let cfg = Fm.balance_config ~replication:(`Functional 0) ~total_area:total () in
  let best h =
    let best = ref max_int in
    for seed = 1 to 4 do
      let n = Hypergraph.num_cells h in
      let order = Array.init n Fun.id in
      Netlist.Rng.shuffle (Netlist.Rng.create seed) order;
      let on_b = Array.make n false in
      Array.iteri (fun k cell -> if k < n / 2 then on_b.(cell) <- true) order;
      let st = Partition_state.create (flat h) ~init_on_b:(fun x -> on_b.(x)) in
      let _, cut, _ = Fm.run_staged cfg st in
      best := min !best cut
    done;
    !best
  in
  let functional = best h in
  let traditional = best (Experiments.Ablation.traditional h) in
  checkb "functional beats traditional" true (functional < traditional)

let test_two_device_config () =
  (* Refining a deliberately unbalanced Fig. 4-style instance: both sides
     must respect their windows and the terminals drop or hold. *)
  let h = mapped_hypergraph (Netlist.Generator.ripple_adder ~bits:16 ()) in
  let n = Hypergraph.num_cells h in
  let st = Partition_state.create (flat h) ~init_on_b:(fun c -> c >= n / 4) in
  let total = Hypergraph.total_area h in
  let w = device_window ~relax_low:true ~lo:1 ~hi:total ~terminals:1000 () in
  let cfg = Fm.window_config ~objective:`Terminals ~a:w ~b:w () in
  let t0 =
    Partition_state.terminals st Partition_state.A
    + Partition_state.terminals st Partition_state.B
  in
  let pen, terms, _ = Fm.run cfg st in
  checki "feasible" 0 pen;
  checkb "terminals not worse" true (terms <= t0);
  checkb "state consistent" true
    (Result.is_ok (Partition_state.check_consistency st))

(* F-M's scoring as it was when a config carried [area_ok] and [score]
   closures, kept as the reference [Fm.score_of] must agree with: the
   window penalty and the balance, split and pair score closures. *)
module Reference_fm_score = struct
  let window_pen (w : Fpga.Objective.window) st side =
    let clbs = Partition_state.area st side in
    let pen =
      ref
        (max 0 (w.lo.(0) - clbs)
        + max 0 (clbs - w.hi.(0))
        + max 0 (Partition_state.terminals st side - w.max_iobs))
    in
    for a = 1 to w.axes - 1 do
      pen := !pen + max 0 (Partition_state.resource st side a - w.hi.(a))
    done;
    !pen

  let balance ~objective ~slack ~total_area st =
    let cap =
      int_of_float (ceil ((1.0 +. slack) *. float_of_int total_area /. 2.0))
    in
    let a = Partition_state.area st Partition_state.A in
    let b = Partition_state.area st Partition_state.B in
    (max 0 (max a b - cap), Fm.objective_value objective st, 0)

  let split ~objective a st =
    ( window_pen a st Partition_state.A,
      Fm.objective_value objective st,
      Partition_state.area st Partition_state.B )

  let pair ~objective a b st =
    ( window_pen a st Partition_state.A + window_pen b st Partition_state.B,
      Fm.objective_value objective st,
      Partition_state.area st Partition_state.A
      + Partition_state.area st Partition_state.B )
end

(* [h] with random per-axis demand on every cell (1-3 CLBs, up to 4 FFs,
   2 BRAMs and 1 DSP), so the secondary axes of a vector window bind. *)
let with_random_demand rng (h : Hypergraph.t) =
  let r k = Netlist.Rng.int rng k in
  let specs =
    Array.to_list
      (Array.map
         (fun (c : Hypergraph.cell) ->
           let clbs = 1 + r 3 in
           let ff = r 5 in
           let bram = r 3 in
           let dsp = r 2 in
           {
             Hypergraph.s_name = c.Hypergraph.name;
             s_area = clbs;
             s_demand = [| clbs; ff; bram; dsp |];
             s_inputs = c.Hypergraph.inputs;
             s_outputs = c.Hypergraph.outputs;
             s_supports = c.Hypergraph.supports;
           })
         h.Hypergraph.cells)
  in
  let external_nets =
    List.filter
      (fun n -> h.Hypergraph.net_external.(n))
      (List.init h.Hypergraph.num_nets Fun.id)
  in
  Hypergraph.create ~num_nets:h.Hypergraph.num_nets ~external_nets specs

(* A random device window on every axis, scaled to [total] CLBs, under
   [obj]: [paper] constrains the CLB axis alone, [multi-personality] all
   four. Sometimes relaxed, sometimes narrowed below the CLB cap. *)
let random_window rng obj ~total =
  let r k = Netlist.Rng.int rng k in
  let frac () = float_of_int (r 101) /. 100.0 in
  let low = Array.init Fpga.Resource.arity (fun _ -> frac () *. 0.6) in
  let high = Array.map (fun l -> Float.min 1.0 (l +. ((1.0 -. l) *. frac ()))) low in
  let dev =
    Fpga.Device.make_vector ~name:"w"
      ~resources:
        (Fpga.Resource.make ~ffs:(r (2 * total)) ~brams:(r total)
           ~dsps:(r (total / 2 + 1)) ~clbs:(1 + r (total + 1))
           ~iobs:(1 + r 40) ())
      ~price:1.0 ~res_low:low ~res_high:high ()
  in
  let w = Fpga.Objective.window ~relax_low:(Netlist.Rng.bool rng) obj dev in
  if Netlist.Rng.int rng 4 = 0 then Fpga.Objective.narrow ~hi:(r (total + 1)) w
  else w

let qcheck_fm_score_matches_reference =
  QCheck.Test.make ~name:"Fm.score_of = closure-scoring reference" ~count:60
    QCheck.(pair small_int (int_range 6 30))
    (fun (seed, n_cells) ->
      let rng = Netlist.Rng.create (seed + 101) in
      let h = with_random_demand rng (Test_util.random_hypergraph seed n_cells) in
      let total = Hypergraph.total_area h in
      let st =
        Partition_state.create_with_masks (flat h) ~masks:(fun c ->
            Test_util.random_mask rng
              (Bitvec.full
                 (Array.length (Hypergraph.cell h c).Hypergraph.outputs)))
      in
      let obj =
        if Netlist.Rng.bool rng then Fpga.Objective.paper
        else Fpga.Objective.multi_personality
      in
      let a = random_window rng obj ~total in
      let b = random_window rng obj ~total in
      let slack = float_of_int (Netlist.Rng.int rng 120) /. 100.0 in
      let empty (w : Fpga.Objective.window) = w.hi.(0) < w.lo.(0) in
      let agrees cfg reference = Fm.score_of cfg st = reference st in
      let window_case ?b reference =
        match Fm.window_config ~objective:`Cut ~a ?b () with
        | exception Invalid_argument _ ->
            empty a || Option.fold ~none:false ~some:empty b
        | _ when empty a || Option.fold ~none:false ~some:empty b -> false
        | _ ->
            List.for_all
              (fun objective ->
                agrees
                  (Fm.window_config ~objective ~a ?b ())
                  (reference ~objective))
              [ `Cut; `Terminals ]
      in
      List.for_all
        (fun objective ->
          agrees
            (Fm.balance_config ~objective ~slack ~total_area:total ())
            (Reference_fm_score.balance ~objective ~slack ~total_area:total))
        [ `Cut; `Terminals ]
      && window_case (fun ~objective -> Reference_fm_score.split ~objective a)
      && window_case ~b (fun ~objective -> Reference_fm_score.pair ~objective a b))

(* ------------------------------------------------------------------ *)
(* Multilevel coarsening                                              *)
(* ------------------------------------------------------------------ *)

(* The first [Coarsen.coarsen]: closures and tuples in the matching loop,
   per-cluster member lists and two [Hashtbl]s per cluster. Kept as the
   reference, with one change: a cluster whose driven nets are all
   internal exposes its first driven net (it exposed whatever
   [Hashtbl.fold] met last), so no [Hashtbl] order reaches the result. *)
module Reference_coarsen = struct
  (* Per-axis weight guard for a candidate merge. Cluster demand vectors are
     the per-axis sums of their members' vectors (zero-extended), so checking
     every axis of [cap] — not just the scalar CLB weight — keeps coarse
     clusters packable on vector devices: a BRAM-heavy pair whose CLB sum is
     tiny must still refuse to merge past the BRAM cap. *)
  let weight_ok ~cap (h : Hypergraph.t) c0 c1 =
    let d0 = (Hypergraph.cell h c0).Hypergraph.demand in
    let d1 = (Hypergraph.cell h c1).Hypergraph.demand in
    let axis d a = if a < Array.length d then d.(a) else 0 in
    let ok = ref true in
    for a = 0 to Array.length cap - 1 do
      if axis d0 a + axis d1 a > cap.(a) then ok := false
    done;
    !ok

  (* Exact pin counts of a candidate merge: what the merged cluster's
     surface will be. Driven nets whose every pin sits inside the pair
     internalise (a net touches at most two distinct cells when all its
     pins are in the pair, so the check is O(1)); inputs are the distinct
     union of both cells' input nets minus anything driven inside the
     pair. Far tighter than the per-cell pin-count sums when the pair
     shares support or feeds itself — exactly the high-affinity case
     heavy-edge matching favours. Without this, coarsening of
     region-structured circuits stalls an order of magnitude above the
     target: the sums hit the bit-mask width while the true surfaces are
     still small. Uses two stamps from [seen]: [stamp] marks driven
     nets, [stamp + 1] counted inputs. *)
  let merged_pin_counts (h : Hypergraph.t) seen stamp c0 c1 =
    let pair_internal net =
      (not h.Hypergraph.net_external.(net))
      &&
      let cells = h.Hypergraph.net_cells.(net) in
      Array.length cells <= 2
      && Array.for_all (fun c -> c = c0 || c = c1) cells
    in
    let outs = ref 0 in
    let visit_out c =
      Array.iter
        (fun net ->
          if seen.(net) <> stamp then begin
            seen.(net) <- stamp;
            if not (pair_internal net) then Stdlib.incr outs
          end)
        (Hypergraph.cell h c).Hypergraph.outputs
    in
    visit_out c0;
    visit_out c1;
    let ins = ref 0 in
    let in_stamp = stamp + 1 in
    let visit_in c =
      Array.iter
        (fun net ->
          if seen.(net) <> stamp && seen.(net) <> in_stamp then begin
            seen.(net) <- in_stamp;
            Stdlib.incr ins
          end)
        (Hypergraph.cell h c).Hypergraph.inputs
    in
    visit_in c0;
    visit_in c1;
    (!ins, !outs)

  (* Distinct-net count of a candidate merge: |nets(c0) ∪ nets(c1)|. Both
     full-net arrays are memoised on the cells, so this is O(degree). *)
  let merged_net_count (h : Hypergraph.t) seen stamp c0 c1 =
    let count = ref 0 in
    let visit c =
      Array.iter
        (fun net ->
          if seen.(net) <> stamp then begin
            seen.(net) <- stamp;
            Stdlib.incr count
          end)
        (Hypergraph.cell_nets (Hypergraph.cell h c))
    in
    visit c0;
    visit c1;
    !count

  let coarsen ?max_weight ?max_nets ~rng (h : Hypergraph.t) =
    let n = Hypergraph.num_cells h in
    (* Scratch for merged_net_count, stamped per query so it never needs
       clearing. *)
    let seen = Array.make h.Hypergraph.num_nets (-1) in
    let stamp = ref 0 in
    (* Connectivity scores between cells sharing nets: the classic
       1/(pins-1) weighting so huge nets contribute little. Scratch
       arrays instead of a per-cell hash table — scoring runs once per
       cell per level and is the coarsening hot loop at 100k cells. *)
    let score_arr = Array.make n 0.0 in
    let touched = Array.make n (-1) in
    let touched_len = ref 0 in
    let score_with cell =
      Array.iter
        (fun net ->
          let others = h.Hypergraph.net_cells.(net) in
          let pins = Array.length others in
          if pins > 1 then begin
            let w = 1.0 /. float_of_int (pins - 1) in
            Array.iter
              (fun o ->
                if o <> cell then begin
                  if score_arr.(o) = 0.0 then begin
                    touched.(!touched_len) <- o;
                    Stdlib.incr touched_len
                  end;
                  score_arr.(o) <- score_arr.(o) +. w
                end)
              others
          end)
        (Hypergraph.cell_nets (Hypergraph.cell h cell))
    in
    let clear_scores () =
      for t = 0 to !touched_len - 1 do
        score_arr.(touched.(t)) <- 0.0
      done;
      touched_len := 0
    in
    let cluster_of = Array.make n (-1) in
    let order = Array.init n Fun.id in
    Netlist.Rng.shuffle rng order;
    let next_cluster = ref 0 in
    Array.iter
      (fun cell ->
        if cluster_of.(cell) < 0 then begin
          score_with cell;
          let pins c =
            let cc = Hypergraph.cell h c in
            ( Array.length cc.Hypergraph.inputs,
              Array.length cc.Hypergraph.outputs )
          in
          let in0, out0 = pins cell in
          let deg0 =
            Array.length (Hypergraph.cell_nets (Hypergraph.cell h cell))
          in
          let best = ref None in
          for t = 0 to !touched_len - 1 do
            let other = touched.(t) in
            let w = score_arr.(other) in
            (* The score comparison runs first: guards are only evaluated
               on candidates that would displace the incumbent, which
               turns the O(degree) net-union count from per-candidate into
               per-improvement. The winner is the highest-scoring
               candidate passing every guard; equal scores keep the
               earliest candidate in discovery order. *)
            let improves =
              match !best with Some (_, bw) -> w > bw | None -> true
            in
            if improves && cluster_of.(other) < 0 then begin
                (* Merged clusters must stay within the bit-mask pin
                   budget. The pin-count sums are a cheap sufficient
                   check; when they overflow the exact distinct unions
                   decide (shared support and internally-driven inputs
                   both shrink the true surface well below the sums). *)
                let in1, out1 = pins other in
                if
                  (in0 + in1 <= Bitvec.max_width
                   && out0 + out1 <= Bitvec.max_width
                  || (stamp := !stamp + 2;
                      let ins, outs =
                        merged_pin_counts h seen !stamp cell other
                      in
                      ins <= Bitvec.max_width && outs <= Bitvec.max_width))
                  && (match max_weight with
                     | None -> true
                     | Some cap -> weight_ok ~cap h cell other)
                  && (match max_nets with
                     | None -> true
                     | Some cap ->
                         (* Bounds before the exact count: the union is at
                            least max(deg0, deg1) and at most their sum. *)
                         let deg1 =
                           Array.length
                             (Hypergraph.cell_nets (Hypergraph.cell h other))
                         in
                         deg0 + deg1 <= cap
                         || max deg0 deg1 <= cap
                            && ((* advance past both stamps a preceding
                                  [merged_pin_counts] may have used *)
                                stamp := !stamp + 2;
                                merged_net_count h seen !stamp cell other <= cap))
                then best := Some (other, w)
            end
          done;
          clear_scores ();
          let id = !next_cluster in
          incr next_cluster;
          cluster_of.(cell) <- id;
          match !best with
          | Some (mate, _) -> cluster_of.(mate) <- id
          | None -> ()
        end)
      order;
    let num_clusters = !next_cluster in
    (* Nets falling entirely inside one cluster vanish from the coarse
       graph: they can never be cut again, and dropping them keeps cluster
       pin counts (and F-M gain evaluation) small. *)
    let internal net =
      (not h.Hypergraph.net_external.(net))
      &&
      match h.Hypergraph.net_cells.(net) with
      | [||] -> true
      | cells ->
          let k = cluster_of.(cells.(0)) in
          Array.for_all (fun c -> cluster_of.(c) = k) cells
    in
    (* Build cluster cells; surviving nets are renumbered densely. *)
    let members = Array.make num_clusters [] in
    for cell = n - 1 downto 0 do
      members.(cluster_of.(cell)) <- cell :: members.(cluster_of.(cell))
    done;
    let net_map = Array.make h.Hypergraph.num_nets (-1) in
    let new_names = Netlist.Vec.create () in
    let map_net net =
      if net_map.(net) < 0 then
        net_map.(net) <-
          Netlist.Vec.push new_names h.Hypergraph.net_names.(net);
      net_map.(net)
    in
    let specs =
      Array.to_list
        (Array.mapi
           (fun k cells ->
             let outputs = Netlist.Vec.create () in
             let driven = Hashtbl.create 8 in
             let first = ref None in
             List.iter
               (fun c ->
                 Array.iter
                   (fun net ->
                     Hashtbl.replace driven net ();
                     if !first = None then first := Some net;
                     if not (internal net) then
                       ignore (Netlist.Vec.push outputs (map_net net)))
                   (Hypergraph.cell h c).Hypergraph.outputs)
               cells;
             (* A cluster whose driven nets are all internal still needs one
                output pin to be a well-formed cell; an internal net touches
                only this cluster, so exposing it cannot create cut. *)
             if Netlist.Vec.length outputs = 0 then
               Option.iter
                 (fun net -> ignore (Netlist.Vec.push outputs (map_net net)))
                 !first;
             let inputs = Netlist.Vec.create () in
             let seen = Hashtbl.create 8 in
             List.iter
               (fun c ->
                 Array.iter
                   (fun net ->
                     if not (Hashtbl.mem driven net || Hashtbl.mem seen net)
                     then begin
                       Hashtbl.add seen net ();
                       ignore (Netlist.Vec.push inputs (map_net net))
                     end)
                   (Hypergraph.cell h c).Hypergraph.inputs)
               cells;
             let n_in = Netlist.Vec.length inputs in
             let area =
               List.fold_left
                 (fun acc c -> acc + (Hypergraph.cell h c).Hypergraph.area)
                 0 cells
             in
             let demand = Array.make Hypergraph.demand_arity 0 in
             List.iter
               (fun c ->
                 let d = (Hypergraph.cell h c).Hypergraph.demand in
                 for a = 0 to Array.length d - 1 do
                   demand.(a) <- demand.(a) + d.(a)
                 done)
               cells;
             {
               Hypergraph.s_name = Printf.sprintf "cl%d" k;
               s_area = area;
               s_demand = demand;
               s_inputs = Netlist.Vec.to_array inputs;
               s_outputs = Netlist.Vec.to_array outputs;
               (* Clusters are opaque: every output depends on every input. *)
               s_supports =
                 Array.make (Netlist.Vec.length outputs) (Bitvec.full n_in);
             })
           members)
    in
    let externals = ref [] in
    Array.iteri
      (fun net ext ->
        (* External nets always survive: every cell pin on them was kept
           (external nets are never internal). Only externals actually
           touched by cells exist in the coarse graph. *)
        if ext && net_map.(net) >= 0 then externals := net_map.(net) :: !externals)
      h.Hypergraph.net_external;
    let coarse =
      Hypergraph.create
        ~net_names:(Netlist.Vec.to_array new_names)
        ~num_nets:(Netlist.Vec.length new_names)
        ~external_nets:!externals specs
    in
    (coarse, cluster_of)
end

(* Random hypergraphs whose cells drive up to 60 nets, most of them read by
   nobody: clusters whose driven nets are all internal — the fallback
   output — come up on most levels. *)
let wide_hypergraph seed n_cells =
  let rng = Netlist.Rng.create seed in
  let next_net = ref 4 in
  let available = ref [| 0; 1; 2; 3 |] in
  let specs =
    List.init n_cells (fun k ->
        let n_in = 1 + Netlist.Rng.int rng (min 4 (Array.length !available)) in
        let picks = Netlist.Rng.sample rng n_in (Array.length !available) in
        let inputs = Array.map (fun i -> !available.(i)) picks in
        let n_out =
          if Netlist.Rng.bool rng then 1 + Netlist.Rng.int rng 60
          else 1 + Netlist.Rng.int rng 3
        in
        let outputs = Array.init n_out (fun o -> !next_net + o) in
        next_net := !next_net + n_out;
        (* Only the first output is offered to later cells. *)
        available := Array.append !available [| outputs.(0) |];
        Test_util.spec (Printf.sprintf "w%d" k) (Array.to_list inputs)
          (Array.to_list outputs)
          (List.init n_out (fun _ -> Bitvec.full n_in)))
  in
  Hypergraph.create ~num_nets:!next_net ~external_nets:[ 0; 1; 2; 3 ] specs

(* Coarsen level by level with both definitions from the same seed, until
   [levels] levels or a stall, and compare every level's graph and map. *)
let coarsen_matches_reference ?max_weight ?max_nets ~seed ~levels h =
  let rng = Netlist.Rng.create seed and ref_rng = Netlist.Rng.create seed in
  let rec go h depth =
    depth >= levels
    ||
    let ((coarse, _) as got) = Coarsen.coarsen ?max_weight ?max_nets ~rng h in
    got = Reference_coarsen.coarsen ?max_weight ?max_nets ~rng:ref_rng h
    && (Hypergraph.num_cells coarse = Hypergraph.num_cells h
       || go coarse (depth + 1))
  in
  go h 0

(* No caps, loose per-axis and net caps, and tight ones. *)
let coarsen_caps =
  [
    (None, None);
    (Some [| 64; 64; 16; 16 |], Some 40);
    (Some [| 12 |], Some 10);
  ]

let qcheck_coarsen_reference =
  QCheck.Test.make
    ~name:"coarsen = reference (random graphs, with and without caps)"
    ~count:120
    QCheck.(triple small_int (int_range 2 300) (int_range 0 2))
    (fun (seed, n_cells, caps) ->
      let max_weight, max_nets = List.nth coarsen_caps caps in
      List.for_all
        (fun h ->
          coarsen_matches_reference ?max_weight ?max_nets ~seed ~levels:8 h)
        [
          Test_util.random_hypergraph seed n_cells;
          wide_hypergraph seed n_cells;
        ])

let test_coarsen_reference_suite () =
  List.iter
    (fun e ->
      let h = Lazy.force e.Experiments.Suite.hypergraph in
      List.iter
        (fun (max_weight, max_nets) ->
          checkb e.Experiments.Suite.name true
            (coarsen_matches_reference ?max_weight ?max_nets ~seed:1
               ~levels:12 h))
        coarsen_caps)
    (Experiments.Suite.all ())

let s38584_hypergraph () =
  Lazy.force
    (Option.get (Experiments.Suite.find "s38584")).Experiments.Suite.hypergraph

(* One level allocates its coarse graph plus O(cells + nets) scratch. The
   result's size leaves out the net-name strings, which the coarse graph
   shares with the fine one; the reference read about 5.5x. *)
let test_coarsen_allocation () =
  let h = s38584_hypergraph () in
  let result = ref None in
  let words =
    Test_util.words_during (fun () ->
        result := Some (Coarsen.coarsen ~rng:(Netlist.Rng.create 1) h))
  in
  let coarse, map = Option.get !result in
  let names = coarse.Hypergraph.net_names in
  let own =
    Obj.reachable_words (Obj.repr (coarse, map))
    - Obj.reachable_words (Obj.repr names)
    + 1 + Array.length names
  in
  let ratio = words /. float_of_int own in
  if ratio > 2.5 then
    Alcotest.failf
      "coarsen allocated %.0f words for a %d-word result on s38584 (%.2fx, \
       bound 2.5x)"
      words own ratio

(* A stalled level is dropped before its graph is built. On cells that
   share no net, matching pairs nothing, so [hierarchy] stops at its
   first level (still wrapped, so its span is emitted) having allocated
   the matching's scratch alone: less than one [coarsen] call, which
   contracts the same matching into a graph. *)
let test_stalled_level_unbuilt () =
  let n = 2000 in
  let h =
    Hypergraph.create ~num_nets:(2 * n)
      ~external_nets:(List.init n (fun k -> 2 * k))
      (List.init n (fun k ->
           Test_util.spec (Printf.sprintf "c%d" k) [ 2 * k ] [ (2 * k) + 1 ]
             [ Bitvec.full 1 ]))
  in
  let wrapped = ref [] and hier = ref None in
  let hier_words =
    Test_util.words_during (fun () ->
        hier :=
          Some
            (Coarsen.hierarchy ~coarsest:10
               ~wrap:(fun d f ->
                 wrapped := d :: !wrapped;
                 f ())
               ~rng:(Netlist.Rng.create 1) h))
  in
  let coarsen_words =
    Test_util.words_during (fun () ->
        ignore (Coarsen.coarsen ~rng:(Netlist.Rng.create 1) h))
  in
  checki "no level kept" 0 (Coarsen.num_levels (Option.get !hier));
  checkb "the stalled level was wrapped" true (!wrapped = [ 0 ]);
  if hier_words >= coarsen_words then
    Alcotest.failf
      "hierarchy allocated %.0f words on a stalling graph, one coarsen %.0f"
      hier_words coarsen_words

(* The fallback output was once the last net [Hashtbl.fold] met, so a
   randomized hash seed ([OCAMLRUNPARAM=R]) changed the coarse graphs'
   net numbering and names. The randomization is process-global: this
   case runs last. *)
let test_coarsen_hash_seed_independent () =
  let graphs =
    [
      s38584_hypergraph ();
      Test_util.random_hypergraph 5 300;
      wide_hypergraph 3 400;
      wide_hypergraph 4 150;
    ]
  in
  let hierarchies () =
    List.concat_map
      (fun h ->
        List.map
          (fun (max_weight, max_nets) ->
            let hier =
              Coarsen.hierarchy ~coarsest:20 ?max_weight ?max_nets
                ~rng:(Netlist.Rng.create 7) h
            in
            (hier.Coarsen.coarsest, hier.Coarsen.levels))
          coarsen_caps)
      graphs
  in
  let before = hierarchies () in
  Hashtbl.randomize ();
  List.iteri
    (fun i (b, a) -> checkb (Printf.sprintf "hierarchy %d" i) true (a = b))
    (List.combine before (hierarchies ()))

(* A cluster whose driven nets are all internal exposes its first driven
   net, in member and pin order: "a_out", driven by cell 0. The rule
   before it took the driven net in the highest [Hashtbl.hash] bucket,
   "b_out" (net 1, bucket 11, against net 2's bucket 0). *)
let test_coarsen_fallback_net () =
  let h =
    Hypergraph.create ~net_names:[| "in"; "b_out"; "a_out" |] ~num_nets:3
      ~external_nets:[ 0 ]
      [
        Test_util.spec "a" [ 0 ] [ 2 ] [ Bitvec.full 1 ];
        Test_util.spec "b" [ 2 ] [ 1 ] [ Bitvec.full 1 ];
      ]
  in
  let coarse, _ = Coarsen.coarsen ~rng:(Netlist.Rng.create 1) h in
  checki "one cluster" 1 (Hypergraph.num_cells coarse);
  let outputs = (Hypergraph.cell coarse 0).Hypergraph.outputs in
  checki "one output" 1 (Array.length outputs);
  Alcotest.(check string)
    "exposed net" "a_out"
    coarse.Hypergraph.net_names.(outputs.(0))

let test_coarsen_structure () =
  let h = mapped_hypergraph (Netlist.Generator.multiplier ~bits:10 ()) in
  let rng = Netlist.Rng.create 3 in
  let coarse, map = Coarsen.coarsen ~rng h in
  checkb "valid" true (Result.is_ok (Hypergraph.validate coarse));
  checkb "shrinks" true
    (Hypergraph.num_cells coarse < Hypergraph.num_cells h);
  (* Area is conserved: clusters weigh what their members weigh. *)
  checki "area conserved" (Hypergraph.total_area h)
    (Hypergraph.total_area coarse);
  (* The map is a total function onto the coarse cells. *)
  Array.iter
    (fun k -> checkb "map in range" true (k >= 0 && k < Hypergraph.num_cells coarse))
    map;
  checki "map covers fine cells" (Hypergraph.num_cells h) (Array.length map)

let test_coarsen_respects_pin_budget () =
  let h = mapped_hypergraph (Netlist.Generator.multiplier ~bits:10 ()) in
  let rng = Netlist.Rng.create 3 in
  let rec check_levels h depth =
    if depth < 4 && Hypergraph.num_cells h > 50 then begin
      let coarse, _ = Coarsen.coarsen ~rng h in
      Array.iter
        (fun cell ->
          checkb "inputs within mask budget" true
            (Array.length cell.Hypergraph.inputs <= Bitvec.max_width);
          checkb "outputs within mask budget" true
            (Array.length cell.Hypergraph.outputs <= Bitvec.max_width))
        coarse.Hypergraph.cells;
      check_levels coarse (depth + 1)
    end
  in
  check_levels h 0

let test_coarsen_weight_caps () =
  (* Per-axis cluster weight caps: a chain of BRAM-heavy cells (demand
     8 on axis 2, cap 10) must not merge with each other — any pair
     would weigh 16 on the BRAM axis — while a logic-only cell may
     still fold into its BRAM neighbour. *)
  let bram = [| 2; 0; 8; 0 |] in
  let spec ?(demand = bram) name inputs outputs =
    {
      Hypergraph.s_name = name;
      s_area = demand.(0);
      s_demand = demand;
      s_inputs = Array.of_list inputs;
      s_outputs = Array.of_list outputs;
      s_supports =
        Array.of_list
          (List.map
             (fun _ -> Bitvec.of_list (List.mapi (fun i _ -> i) inputs))
             outputs);
    }
  in
  let h =
    Hypergraph.create ~num_nets:6 ~external_nets:[ 4; 5 ]
      [
        spec "b0" [ 4 ] [ 0 ];
        spec "b1" [ 0 ] [ 1 ];
        spec "b2" [ 1 ] [ 2 ];
        spec "b3" [ 2 ] [ 3 ];
        spec ~demand:[| 1 |] "l" [ 3 ] [ 5 ];
      ]
  in
  let axis j (c : Hypergraph.cell) =
    if j < Array.length c.Hypergraph.demand then c.Hypergraph.demand.(j) else 0
  in
  let capped, _ =
    Coarsen.coarsen ~max_weight:[| 100; 100; 10; 100 |]
      ~rng:(Netlist.Rng.create 1) h
  in
  (* The only admissible merge is l into b3: four clusters remain and
     every cluster obeys the BRAM cap. *)
  checki "capped cells" 4 (Hypergraph.num_cells capped);
  Array.iter
    (fun c -> checkb "bram axis capped" true (axis 2 c <= 10))
    capped.Hypergraph.cells;
  checki "area conserved under caps" (Hypergraph.total_area h)
    (Hypergraph.total_area capped);
  (* Without the cap the same chain merges BRAM pairs and overshoots. *)
  let free, _ = Coarsen.coarsen ~rng:(Netlist.Rng.create 1) h in
  checkb "uncapped merges bram pairs" true
    (Array.exists (fun c -> axis 2 c > 10) free.Hypergraph.cells)

let qcheck_projection_sound =
  (* The uncoarsening contract of the V-cycle: pulling the coarse
     labelling down the hierarchy, every level materialises
     ([Kway.project_parts]) into a feasible, [Kway.check]-clean result
     whose interconnect never exceeds the coarse level's — coarsening
     only hides nets internal to one cluster, which projection keeps
     internal to one part. *)
  QCheck.Test.make ~name:"V-cycle projection stays feasible and check-clean"
    ~count:6
    QCheck.(int_range 1 1000)
    (fun seed ->
      let h =
        mapped_hypergraph
          (Netlist.Generator.clustered
             { Netlist.Generator.default_clustered with clusters = 6; seed })
      in
      let hier =
        Coarsen.hierarchy ~coarsest:60 ~rng:(Netlist.Rng.create (seed + 3)) h
      in
      let options = Kway.Options.make ~runs:2 ~seed:1 () in
      match
        Kway.partition ~options ~library:Fpga.Library.xc3000
          hier.Coarsen.coarsest
      with
      | Error _ -> QCheck.assume_fail () (* infeasible coarsest: vacuous *)
      | Ok coarse ->
          let devices =
            Array.of_list
              (List.map (fun p -> p.Kway.device) coarse.Kway.parts)
          in
          let labels, _ =
            Kway.labels_of_parts hier.Coarsen.coarsest coarse.Kway.parts
          in
          let ok = ref true in
          let cut = ref coarse.Kway.summary.Fpga.Cost.total_iobs in
          let _ =
            List.fold_left
              (fun labels (fine, map) ->
                let labels = Coarsen.project_labels ~map labels in
                (match
                   Kway.project_parts ~options ~library:Fpga.Library.xc3000
                     ~labels ~devices fine
                 with
                | Error _ -> ok := false
                | Ok parts ->
                    let r = Kway.result_of_parts fine parts in
                    (match Kway.check fine r with
                    | Ok () -> ()
                    | Error _ -> ok := false);
                    let iobs = r.Kway.summary.Fpga.Cost.total_iobs in
                    if iobs > !cut then ok := false;
                    cut := iobs);
                labels)
              labels hier.Coarsen.levels
          in
          !ok)

let test_multilevel_jobs_stable () =
  (* The multilevel driver's result must be independent of the worker
     count, like the flat driver's: same circuit, same seed, jobs=1 vs
     jobs=4 — identical devices, loads and cost. *)
  let h =
    mapped_hypergraph
      (Netlist.Generator.clustered
         { Netlist.Generator.default_clustered with clusters = 10; seed = 17 })
  in
  let run jobs =
    let options =
      Kway.Options.make ~runs:2 ~seed:1 ~jobs
        ~strategy:(Kway.Multilevel Kway.Options.default_multilevel) ()
    in
    match Kway.partition ~options ~library:Fpga.Library.xc3000 h with
    | Error e -> Alcotest.fail e
    | Ok r ->
        (match Kway.check h r with
        | Ok () -> ()
        | Error e -> Alcotest.fail ("unsound: " ^ e));
        ( r.Kway.summary.Fpga.Cost.total_cost,
          List.map
            (fun p -> (p.Kway.device.Fpga.Device.name, p.Kway.clbs, p.Kway.iobs))
            r.Kway.parts )
  in
  let cost1, parts1 = run 1 in
  let cost4, parts4 = run 4 in
  Alcotest.check (Alcotest.float 0.0) "cost jobs-independent" cost1 cost4;
  checkb "parts jobs-independent" true (parts1 = parts4)

(* The scale ladder of bench/scale_devices.json. *)
let scale_library =
  let dev name capacity terminals price util_low =
    Fpga.Device.make ~name ~capacity ~terminals ~price ~util_low
      ~util_high:0.95 ()
  in
  Fpga.Library.make
    [
      dev "S4K" 4096 2400 400.0 0.0; dev "S8K" 8192 4000 760.0 0.5;
      dev "S16K" 16384 6400 1450.0 0.5; dev "S32K" 32768 9600 2780.0 0.5;
    ]

(* The list-built [Kway.project_parts] the flat tally replaced, kept as
   the reference: per-net part lists, IOBs from list scans. *)
let reference_project_parts ~options ~library ~labels
    ~(devices : Fpga.Device.t array) hg =
  let n = Hypergraph.num_cells hg in
  let k = Array.length devices in
  let on_net = Array.make hg.Hypergraph.num_nets [] in
  let clbs = Array.make k 0 in
  let used = Array.make_matrix k Hypergraph.demand_arity 0 in
  Array.iteri
    (fun c p ->
      let cell = Hypergraph.cell hg c in
      clbs.(p) <- clbs.(p) + cell.Hypergraph.area;
      Array.iteri
        (fun a d -> used.(p).(a) <- used.(p).(a) + d)
        cell.Hypergraph.demand;
      Array.iter
        (fun nt -> if not (List.mem p on_net.(nt)) then on_net.(nt) <- p :: on_net.(nt))
        (Hypergraph.cell_nets cell))
    labels;
  let members = Array.make k [] in
  for c = n - 1 downto 0 do
    let full =
      Bitvec.full (Array.length (Hypergraph.cell hg c).Hypergraph.outputs)
    in
    members.(labels.(c)) <- (c, full) :: members.(labels.(c))
  done;
  let iobs = Array.make k 0 in
  Array.iteri
    (fun nt touchers ->
      List.iter
        (fun j ->
          if
            hg.Hypergraph.net_external.(nt)
            || List.exists (fun q -> q <> j) touchers
          then iobs.(j) <- iobs.(j) + 1)
        touchers)
    on_net;
  let obj = options.Kway.objective in
  let rec build p acc =
    if p < 0 then Ok acc
    else if members.(p) = [] then build (p - 1) acc
    else
      let demand = used.(p) and io = iobs.(p) in
      let dev =
        if Fpga.Objective.fits ~relax_low:true obj devices.(p) ~demand ~iobs:io
        then Some devices.(p)
        else Fpga.Objective.cheapest ~relax_low:true obj library ~demand ~iobs:io
      in
      match dev with
      | None -> Error p
      | Some device ->
          build (p - 1)
            ({ Kway.device; members = members.(p); clbs = clbs.(p); iobs = io;
               used = demand }
            :: acc)
  in
  build (k - 1) []

(* Random whole-cell labellings over up to six devices: random
   hypergraphs into XC3000 (parts that outgrow their device move to the
   cheapest fitting one, or fail) and mapped generated circuits into the
   scale ladder. The same parts (members, CLBs, IOBs, demand, device), or
   an error on the same labellings. *)
let qcheck_project_parts_reference =
  QCheck.Test.make ~name:"project_parts = reference on random labellings"
    ~count:150
    QCheck.(triple small_int (int_range 1 60) (int_range 1 6))
    (fun (seed, n_cells, k) ->
      let h, library =
        if seed mod 3 = 0 then
          ( mapped_hypergraph
              (Netlist.Generator.clustered
                 { Netlist.Generator.default_clustered with clusters = 3; seed }),
            scale_library )
        else (Test_util.random_hypergraph seed n_cells, Fpga.Library.xc3000)
      in
      let rng = Netlist.Rng.create (seed + 11) in
      let lib = Fpga.Library.devices library in
      let devices =
        Array.init k (fun _ ->
            List.nth lib (Netlist.Rng.int rng (List.length lib)))
      in
      let labels =
        Array.init (Hypergraph.num_cells h) (fun _ -> Netlist.Rng.int rng k)
      in
      let options = Kway.Options.default in
      match
        ( Kway.project_parts ~options ~library ~labels ~devices h,
          reference_project_parts ~options ~library ~labels ~devices h )
      with
      | Ok got, Ok want -> got = want
      | Error _, Error _ -> true
      | _ -> false)

(* [project_parts] of mapped s38584 under a random 16-way labelling
   allocates its member lists (a cons and a pair, six words a cell) plus
   the tally's flat per-net tables (offsets, counts and part slots, about
   five words a net here) and O(k) per-part records; the list-built
   reference allocated a cons per (net, part) and closures per net and
   per toucher. *)
let test_project_parts_allocation () =
  let h =
    Lazy.force
      (Option.get (Experiments.Suite.find "s38584")).Experiments.Suite.hypergraph
  in
  let k = 16 in
  let n = Hypergraph.num_cells h in
  let rng = Netlist.Rng.create 3 in
  let labels = Array.init n (fun _ -> Netlist.Rng.int rng k) in
  let devices =
    Array.make k (List.hd (Fpga.Library.devices scale_library))
  in
  let run () =
    Kway.project_parts ~library:scale_library ~labels ~devices h
  in
  let parts = ref (run ()) in
  checki "16 parts" k
    (match !parts with Ok p -> List.length p | Error e -> Alcotest.fail e);
  let words = Test_util.words_during (fun () -> parts := run ()) in
  let bound = float_of_int ((6 * n) + (6 * h.Hypergraph.num_nets) + 4096) in
  if words > bound then
    Alcotest.failf "project_parts allocated %.0f words (bound %.0f)" words
      bound

(* The 10k-gate scale circuit (5,333 mapped cells), the quick suite's
   stand-in for the scale circuits' V-cycle. *)
let scale10k =
  lazy
    (Techmap.Mapper.to_hypergraph
       (Techmap.Mapper.map
          ~options:{ Techmap.Mapper.default_options with pair_disjoint = false }
          (Netlist.Generator.scale ~name:"scale10k"
             {
               Netlist.Generator.default_scale with
               sc_gates = 10_000;
               sc_seed = 3;
             })))

let greedy_options =
  Kway.Options.make ~runs:1 ~seed:3
    ~strategy:(Kway.Multilevel Kway.Options.default_multilevel) ()

(* The words and result of one [Kway.partition] on a fresh domain. *)
let partition_words ~options ~library h =
  on_fresh_domain (fun () ->
      let result = ref (Error "not run") in
      let words =
        Test_util.words_during (fun () ->
            result := Kway.partition ~options ~library h)
      in
      (words, !result))

(* A one-device library: "D", 1,024 CLBs and 900 terminals at $100. *)
let d_library util_low =
  Fpga.Library.make
    [
      Fpga.Device.make ~name:"D" ~capacity:1024 ~terminals:900 ~price:100.0
        ~util_low ~util_high:0.95 ();
    ]

(* A multilevel partition of the 10k-gate circuit on a fresh domain; the
   S4K rung alone, so the circuit splits in two. The walk's per-level
   steps (projection, boundary, greedy sweeps) allocate their flat tables,
   nothing per net, cell or candidate, and the parts are built once, after
   the finest level: about 1.5 Mw in all, where the closure- and
   list-built walk took 3.9. *)
let test_multilevel_greedy_allocation () =
  let h = Lazy.force scale10k in
  checkb "more than 4,096 cells" true (Hypergraph.num_cells h > 4096);
  let library =
    Fpga.Library.make [ List.hd (Fpga.Library.devices scale_library) ]
  in
  let words, result = partition_words ~options:greedy_options ~library h in
  (match result with
  | Ok r -> (
      checki "two parts" 2 (List.length r.Kway.parts);
      match Kway.check h r with
      | Ok () -> ()
      | Error e -> Alcotest.fail ("unsound: " ^ e))
  | Error e -> Alcotest.fail e);
  if words > 2.8e6 then
    Alcotest.failf "multilevel partition allocated %.2f Mw (bound 2.8)"
      (words /. 1e6)

(* The 88-part case of the pins below, on a fresh domain. Each level
   keeps its per-net part data once, in the tally the greedy mover moves
   cells in, and the coarse solve's 88 splits rebuild their F-M states in
   place and carve each remainder into one of two recycled flat buffers:
   about 1.75 Mw in all, where an induced graph of records per split took
   9.3, fresh states per restart 11.5 and the mover's dense [k x nets]
   count table with the member lists rebuilt at every level 15.3. *)
let test_greedy_many_parts_allocation () =
  let words, result =
    partition_words ~options:greedy_options ~library:(d_library 0.0)
      (Lazy.force scale10k)
  in
  (match result with
  | Ok r -> checki "88 parts" 88 (List.length r.Kway.parts)
  | Error e -> Alcotest.fail e);
  if words > 2.5e6 then
    Alcotest.failf "88-part multilevel partition allocated %.2f Mw (bound 2.5)"
      (words /. 1e6)

(* Two recorded greedy-path results: the 10k-gate circuit into the
   one-device library at two lower utilisation bounds. The 88-part case
   puts many parts on a net, so it pins the greedy mover's candidate
   order (a cell's nets ascending, then parts ascending) and its
   first-best tie-break. Parts are (CLBs, IOBs), every one on "D". A
   change meant to move greedy-path results re-records them, as it does
   gen100k's in test_contracts. *)
let greedy_pins =
  [
    ( 0.5,
      800.0,
      1097,
      [ (705, 165); (335, 67); (710, 148); (679, 96); (753, 158); (731, 146);
        (696, 163); (724, 154) ] );
    ( 0.0,
      8800.0,
      3374,
      [ (3, 8); (1, 3); (1, 3); (1, 3); (1, 3); (62, 43); (29, 34); (79, 77);
        (1, 5); (27, 28); (59, 58); (46, 51); (1, 3); (29, 33); (24, 27);
        (33, 29); (91, 102); (1, 4); (1, 4); (55, 63); (32, 31); (1, 4);
        (32, 31); (1, 5); (1, 3); (1, 5); (26, 28); (28, 33); (26, 34);
        (20, 29); (1, 7); (1, 3); (25, 24); (25, 35); (62, 65); (29, 30);
        (95, 100); (32, 38); (57, 69); (1, 5); (1, 6); (118, 85); (1, 6);
        (50, 48); (34, 31); (26, 32); (30, 35); (66, 65); (32, 33);
        (163, 142); (1, 3); (1, 5); (26, 32); (1, 3); (1, 5); (34, 23);
        (34, 30); (209, 89); (1, 7); (33, 36); (1, 3); (1, 4); (29, 25);
        (1, 3); (25, 32); (53, 52); (26, 37); (34, 38); (30, 35); (69, 66);
        (64, 76); (27, 29); (27, 31); (29, 33); (171, 142); (22, 32); (1, 7);
        (614, 224); (1, 6); (1, 5); (29, 36); (1, 7); (1, 6); (1, 7); (1, 6);
        (648, 221); (799, 187); (724, 148) ] );
  ]

let test_greedy_pins () =
  let h = Lazy.force scale10k in
  List.iter
    (fun (util_low, cost, iobs, parts) ->
      let label what = Printf.sprintf "util_low %g: %s" util_low what in
      match
        Kway.partition ~options:greedy_options ~library:(d_library util_low) h
      with
      | Error e -> Alcotest.fail (label e)
      | Ok r -> (
          Alcotest.check (Alcotest.float 0.0) (label "total cost") cost
            r.Kway.summary.Fpga.Cost.total_cost;
          checki (label "total IOBs") iobs r.Kway.summary.Fpga.Cost.total_iobs;
          Alcotest.(check (list (triple string int int)))
            (label "parts")
            (List.map (fun (clbs, iobs) -> ("D", clbs, iobs)) parts)
            (List.map
               (fun p ->
                 (p.Kway.device.Fpga.Device.name, p.Kway.clbs, p.Kway.iobs))
               r.Kway.parts);
          match Kway.check h r with
          | Ok () -> ()
          | Error e -> Alcotest.fail (label ("unsound: " ^ e))))
    greedy_pins

(* Functional replication above the old 4,096-cell switch: the 8-part
   pin's run with [`Functional 1] replicates, uses fewer IOBs than the
   same run without replication, and passes [Kway.check]. *)
let test_greedy_walk_replicates () =
  let h = Lazy.force scale10k in
  let library = d_library 0.5 in
  let run options =
    match Kway.partition ~options ~library h with
    | Ok r -> r
    | Error e -> Alcotest.fail e
  in
  let plain = run greedy_options in
  let r =
    run (Kway.Options.make ~base:greedy_options ~replication:(`Functional 1) ())
  in
  checkb "replicates a cell" true (r.Kway.replicated_cells >= 1);
  checkb
    (Printf.sprintf "fewer IOBs (%d, %d without replication)"
       r.Kway.summary.Fpga.Cost.total_iobs
       plain.Kway.summary.Fpga.Cost.total_iobs)
    true
    (r.Kway.summary.Fpga.Cost.total_iobs
    < plain.Kway.summary.Fpga.Cost.total_iobs);
  match Kway.check h r with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("unsound: " ^ e)

(* The span shape e2ebench/layers.ml's [vcycle_split] reads from a traced
   multilevel partition. The partition span's direct children are only
   "coarsen<d>", "run<r>" and "refine<n>". A walk level is a "refine<idx>"
   that wraps "greedy<r>" sweeps; the finest also wraps the replication
   round's "refine<round>" sweeps; any other "refine<n>" child (the coarse
   solve's winner refinement) wraps neither. *)
let test_vcycle_span_shape () =
  let obs = Obs.create ~trace:true () in
  let options =
    Kway.Options.make ~seed:1 ~replication:(`Functional 1)
      ~strategy:(Kway.Multilevel Kway.Options.default_multilevel) ()
  in
  (match
     Obs.span obs "core.partition" (fun () ->
         Kway.partition ~obs ~options ~library:Fpga.Library.xc3000
           (s9234_hypergraph ()))
   with
  | Ok r -> checkb "replicates" true (r.Kway.replicated_cells > 0)
  | Error e -> Alcotest.fail e);
  let open Obs.Trace in
  let spans = spans obs in
  let after p s =
    String.sub s (String.length p) (String.length s - String.length p)
  in
  let indexed p n =
    String.starts_with ~prefix:p n
    && String.length n > String.length p
    && String.for_all (fun ch -> ch >= '0' && ch <= '9') (after p n)
  in
  let root = "core.partition/" in
  let children =
    List.filter_map
      (fun sp ->
        if not (String.starts_with ~prefix:root sp.span_name) then None
        else
          let n = after root sp.span_name in
          if String.contains n '/' then None else Some (n, sp))
      spans
  in
  List.iter
    (fun (n, _) ->
      checkb (n ^ " is a V-cycle phase") true
        (List.exists (fun p -> indexed p n) [ "coarsen"; "run"; "refine" ]))
    children;
  let wraps p sweep =
    List.exists
      (fun s ->
        s.begin_secs >= p.begin_secs && s.end_secs <= p.end_secs
        && String.starts_with ~prefix:(p.span_name ^ "/" ^ sweep) s.span_name)
      spans
  in
  let refines =
    List.filter_map
      (fun (n, sp) -> if indexed "refine" n then Some sp else None)
      children
  in
  let levels = List.filter (fun sp -> wraps sp "greedy") refines in
  let nlev =
    Option.value ~default:0
      (List.assoc_opt "ml.level" (Obs.snapshot obs).Obs.Snapshot.counters)
  in
  checkb "coarsened" true (nlev >= 1);
  checki "one walk level per coarsening level" nlev (List.length levels);
  Alcotest.(check (list string))
    "walk levels in order"
    (List.init nlev (fun i -> Printf.sprintf "core.partition/refine%d" i))
    (List.map (fun sp -> sp.span_name) levels);
  List.iteri
    (fun i sp ->
      checkb
        (Printf.sprintf "level %d wraps replication iff finest" i)
        (i = nlev - 1) (wraps sp "refine"))
    levels;
  List.iter
    (fun sp ->
      if not (List.memq sp levels) then
        checkb "the winner refinement wraps no sweep" false (wraps sp "refine"))
    refines

(* ------------------------------------------------------------------ *)
(* k-way driver                                                       *)
(* ------------------------------------------------------------------ *)

(* FPGAPART_JOBS lets the CI matrix exercise the parallel multi-start
   path through the whole k-way suite without a dedicated test copy. *)
let small_options =
  Kway.Options.make ~runs:3 ~jobs:(Parallel.Pool.jobs_from_env ()) ()

let test_kway_refinement_not_worse () =
  (* Refinement may only improve the (cost, interconnect) outcome. Each
     "kway.run" event records its run before the winner is refined, so
     the result costs no more than any feasible run, and at the lowest
     run cost it uses no more IOBs than the run it refined. On c5315
     refinement improves several pairs. *)
  let h =
    Lazy.force
      (Option.get (Experiments.Suite.find "c5315")).Experiments.Suite.hypergraph
  in
  let obs = Obs.create () in
  match
    Kway.partition ~obs ~options:small_options ~library:Fpga.Library.xc3000 h
  with
  | Error e -> Alcotest.fail e
  | Ok r ->
      (match Kway.check h r with
      | Ok () -> ()
      | Error e -> Alcotest.fail ("unsound: " ^ e));
      let runs =
        List.filter_map
          (fun e ->
            let field k = List.assoc_opt k e.Obs.Snapshot.fields in
            match (e.Obs.Snapshot.name, field "feasible") with
            | "kway.run", Some (Obs.Json.Bool true) -> (
                match (field "total_cost", field "total_iobs") with
                | Some (Obs.Json.Float c), Some (Obs.Json.Int i) -> Some (c, i)
                | _ -> Alcotest.fail "kway.run event lacks its totals")
            | _ -> None)
          (Obs.snapshot obs).Obs.Snapshot.events
      in
      checki "every run feasible" small_options.Kway.runs (List.length runs);
      let cost = r.Kway.summary.Fpga.Cost.total_cost in
      let iobs = r.Kway.summary.Fpga.Cost.total_iobs in
      List.iter
        (fun (c, _) -> checkb "refinement does not raise cost" true (cost <= c))
        runs;
      let best =
        List.fold_left (fun acc (c, _) -> Float.min acc c) infinity runs
      in
      let best_iobs =
        List.fold_left
          (fun acc (c, i) -> if c = best then max acc i else acc)
          min_int runs
      in
      checkb "refinement does not raise total IOBs when cost ties" true
        (cost < best || iobs <= best_iobs)

(* lib/fpga cannot depend on hypergraph_lib (layering), so the demand
   arity lives in both; this pin is the only thing keeping them equal. *)
let test_demand_arity_pin () =
  checki "Fpga.Resource.demand_arity = Hypergraph.demand_arity"
    Hypergraph.demand_arity Fpga.Resource.demand_arity

let test_kway_objectives () =
  let h = mapped_hypergraph (Netlist.Generator.multiplier ~bits:16 ()) in
  List.iter
    (fun (objective : Fpga.Objective.t) ->
      let options =
        Kway.Options.make ~runs:3 ~objective
          ~jobs:(Parallel.Pool.jobs_from_env ())
          ()
      in
      match Kway.partition ~options ~library:Fpga.Library.xc3000 h with
      | Error e -> Alcotest.fail (objective.Fpga.Objective.name ^ ": " ^ e)
      | Ok r -> (
          match Kway.check h r with
          | Ok () -> ()
          | Error e ->
              Alcotest.fail (objective.Fpga.Objective.name ^ " unsound: " ^ e)))
    Fpga.Objective.builtins

(* One paper-suite job's partition (the e2ebench options: one run, seed
   100, replication T=1, XC3000) of a suite circuit, on a fresh domain so
   that no earlier test's F-M workspace is reused, against a bound on
   what the k-way search allocates beyond its result: the F-M workspace
   once per domain, prefix scores in registers, F-M states taken from the
   run's free list and rebuilt in place, restart sides drawn into them
   with no boxed float per cell, remainders and pair unions carved into
   recycled flat buffers, array-built split and refinement bookkeeping.
   s15850 allocated 1.16 Mw and s38584 8.07 when every restart built
   fresh states; 0.71 and 4.30 with the free list, when every remainder
   and pair union was a fresh graph of records; 0.31 and 0.76 with the
   carves; about 0.30 and 0.72 with the root loaded in place. *)
let suite_hypergraph name =
  Lazy.force
    (Option.get (Experiments.Suite.find name)).Experiments.Suite.hypergraph

let paper_job_options =
  Kway.Options.make ~runs:1 ~seed:100 ~replication:(`Functional 1) ()

let kway_allocation name bound () =
  let h = suite_hypergraph name in
  let options = paper_job_options in
  let words, ok =
    on_fresh_domain (fun () ->
        let ok = ref false in
        let words =
          Test_util.words_during (fun () ->
              ok :=
                Result.is_ok
                  (Kway.partition ~options ~library:Fpga.Library.xc3000 h))
        in
        (words, !ok))
  in
  checkb (name ^ " partitions") true ok;
  if words > bound then
    Alcotest.failf "Kway.partition of %s allocated %.2f Mw (bound %.1f)" name
      (words /. 1e6) (bound /. 1e6)

(* A warm paper-suite job: the second [Kway.partition] of s38584 on a
   domain finds the domain's kits (the flat root, the run kit's states
   and remainder buffers, the refine kit's state, union and masks) sized
   by the first, so it fills no graph-sized array: about 0.28 Mw, against
   0.73 when every job built its own. *)
let test_kway_warm_allocation () =
  let h = suite_hypergraph "s38584" in
  let partition () =
    Kway.partition ~options:paper_job_options ~library:Fpga.Library.xc3000 h
  in
  let words, ok =
    on_fresh_domain (fun () ->
        ignore (partition ());
        let ok = ref false in
        let words =
          Test_util.words_during (fun () ->
              ok := Result.is_ok (partition ()))
        in
        (words, !ok))
  in
  checkb "s38584 partitions" true ok;
  if words > 0.4e6 then
    Alcotest.failf
      "a warm Kway.partition of s38584 allocated %.2f Mw (bound 0.4)"
      (words /. 1e6)

(* A job's result does not depend on what the domain ran before it: the
   kits keep only buffers that each job overwrites on its live prefix.
   One domain runs a sequence whose graphs shrink and grow and whose
   kinds change (flat with replication, a one-device fit, a multilevel
   V-cycle with its replication round, a warm start, the first job
   again); each result must equal the same job run on a fresh domain, at
   [jobs] 1 and 3 (restarts on spawned domains, states from the calling
   domain's kit). *)
let test_kits_between_jobs () =
  let library = Fpga.Library.xc3000 in
  let view = function
    | Error e -> Error e
    | Ok (r : Kway.result) ->
        Ok
          ( List.map
              (fun (p : Kway.part) ->
                ( p.Kway.device.Fpga.Device.name,
                  p.Kway.members,
                  p.Kway.clbs,
                  p.Kway.iobs,
                  p.Kway.used ))
              r.Kway.parts,
            r.Kway.summary )
  in
  let s38584 = suite_hypergraph "s38584"
  and c1355 = suite_hypergraph "c1355"
  and s9234 = suite_hypergraph "s9234" in
  (* The warm start: s13207's partition projected onto a 1 % edit. *)
  let s13207 = suite_hypergraph "s13207" in
  let c = Lazy.force (Option.get (Experiments.Suite.find "s13207")).circuit in
  let edited =
    match
      Netlist.Delta.apply c (Netlist.Delta.random ~seed:3 ~frac:0.01 c)
    with
    | Ok e -> mapped_hypergraph e
    | Error e -> Alcotest.fail (Netlist.Delta.error_to_string e)
  in
  let base = Kway.Options.make ~runs:1 ~seed:1 () in
  let warm =
    match
      on_fresh_domain (fun () -> Kway.partition ~options:base ~library s13207)
    with
    | Ok r ->
        fst (Kway.project_warm ~base:s13207 ~base_parts:r.Kway.parts edited)
    | Error e -> Alcotest.fail e
  in
  List.iter
    (fun jobs ->
      let o = Kway.Options.make ~base:paper_job_options ~jobs () in
      let flat = Kway.Options.make ~base:o ~replication:`None () in
      let ml =
        Kway.Options.make ~base:o
          ~strategy:(Kway.Multilevel Kway.Options.default_multilevel) ()
      in
      let sequence =
        [
          ("s38584", fun () -> Kway.partition ~options:o ~library s38584);
          ("c1355", fun () -> Kway.partition ~options:flat ~library c1355);
          ( "s9234 multilevel",
            fun () -> Kway.partition ~options:ml ~library s9234 );
          ( "warm start",
            fun () -> Kway.warm_start ~options:o ~library ~warm edited );
          ( "s38584 again",
            fun () -> Kway.partition ~options:o ~library s38584 );
        ]
      in
      let warm_kits =
        on_fresh_domain (fun () ->
            List.map (fun (_, job) -> view (job ())) sequence)
      in
      List.iter2
        (fun (name, job) got ->
          let cold = on_fresh_domain (fun () -> view (job ())) in
          checkb
            (Printf.sprintf "%s at jobs %d = fresh domain" name jobs)
            true (got = cold);
          match cold with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "%s: %s" name e)
        sequence warm_kits)
    [ 1; 3 ]

(* Dominance pruning: D100X has D100's window at a higher price, so
   eq. (1) never needs it; with it pruned, adding it to the library
   leaves the result as it was (unpruned, s13207 moved from $1,100 in 5
   parts to $1,170 in 6), and the drop is one event. The built-in
   libraries and the scale ladder have no dominated device. *)
let test_dominated_device () =
  let dev name capacity terminals price util_low =
    Fpga.Device.make ~name ~capacity ~terminals ~price ~util_low
      ~util_high:0.95 ()
  in
  let d100 = dev "D100" 100 80 100.0 0.3
  and d224 = dev "D224" 224 120 190.0 0.5
  and d400 = dev "D400" 400 160 310.0 0.5 in
  let base = Fpga.Library.make [ d100; d224; d400 ] in
  let padded =
    Fpga.Library.make [ d100; dev "D100X" 100 80 150.0 0.3; d224; d400 ]
  in
  let h = suite_hypergraph "s13207" in
  let options = Kway.Options.make ~seed:4 ~replication:(`Functional 1) () in
  let run library =
    let obs = Obs.create () in
    match Kway.partition ~obs ~options ~library h with
    | Error e -> Alcotest.fail e
    | Ok r ->
        let dropped =
          List.filter
            (fun (e : Obs.Snapshot.event) ->
              e.Obs.Snapshot.name = "kway.dominated_device")
            (Obs.snapshot obs).Obs.Snapshot.events
        in
        ( List.map
            (fun (p : Kway.part) ->
              (p.Kway.device.Fpga.Device.name, p.Kway.members, p.Kway.clbs))
            r.Kway.parts,
          r.Kway.summary,
          List.length dropped )
  in
  let parts, summary, none = run base in
  let parts', summary', one = run padded in
  checki "no drop without D100X" 0 none;
  checki "D100X dropped once" 1 one;
  checkb "parts unchanged" true (parts = parts');
  checkb "summary unchanged" true (summary = summary');
  List.iter
    (fun (name, library) ->
      List.iter
        (fun objective ->
          checki
            (Printf.sprintf "%s has no dominated device under %s" name
               objective.Fpga.Objective.name)
            0
            (List.length (snd (Fpga.Objective.undominated objective library))))
        Fpga.Objective.builtins)
    [
      ("XC3000", Fpga.Library.xc3000);
      ("XC4000", Fpga.Library.xc4000);
      ("scale ladder", scale_library);
    ];
  let exact =
    Fpga.Library.make [ dev "B" 100 80 100.0 0.3; dev "A" 100 80 100.0 0.3 ]
  in
  match Fpga.Objective.undominated Fpga.Objective.paper exact with
  | kept, [ (dropped, by) ] ->
      Alcotest.(check (list string))
        "exact tie keeps the smaller name" [ "A" ]
        (List.map (fun d -> d.Fpga.Device.name) (Fpga.Library.devices kept));
      Alcotest.(check (pair string string))
        "dropped by" ("B", "A")
        (dropped.Fpga.Device.name, by.Fpga.Device.name)
  | _ -> Alcotest.fail "an exact tie drops exactly one device"

(* Restarts on the domain pool: with one run and [jobs] 3, the spare
   domains go to each split's F-M restarts ([attempt_jobs] 3), a path the
   CLI's run-level parallelism does not reach. Their sides are drawn on
   the calling domain in restart order, so the parts and the summary
   equal a [jobs] 1 run's. *)
let test_kway_parallel_restarts () =
  let shape (r : Kway.result) =
    ( List.map
        (fun (p : Kway.part) ->
          ( p.Kway.device.Fpga.Device.name,
            p.Kway.members,
            p.Kway.clbs,
            p.Kway.iobs,
            p.Kway.used ))
        r.Kway.parts,
      r.Kway.summary )
  in
  List.iter
    (fun name ->
      let h =
        Lazy.force
          (Option.get (Experiments.Suite.find name))
            .Experiments.Suite.hypergraph
      in
      List.iter
        (fun seed ->
          let run jobs =
            let options =
              Kway.Options.make ~runs:1 ~seed ~jobs
                ~replication:(`Functional 1) ()
            in
            match Kway.partition ~options ~library:Fpga.Library.xc3000 h with
            | Ok r -> shape r
            | Error e ->
                Alcotest.failf "%s seed %d jobs %d: %s" name seed jobs e
          in
          checkb
            (Printf.sprintf "%s seed %d: jobs 3 = jobs 1" name seed)
            true
            (run 1 = run 3))
        [ 1; 2; 3 ])
    [ "s9234"; "c6288" ]

let test_kway_xc4000 () =
  let h = mapped_hypergraph (Netlist.Generator.multiplier ~bits:16 ()) in
  match Kway.partition ~options:small_options ~library:Fpga.Library.xc4000 h with
  | Error e -> Alcotest.fail e
  | Ok r -> (
      match Kway.check h r with
      | Ok () ->
          checkb "uses XC4000 parts" true
            (List.for_all
               (fun (name, _) -> String.length name >= 5 && String.sub name 0 3 = "XC4")
               r.Kway.summary.Fpga.Cost.device_counts)
      | Error e -> Alcotest.fail ("unsound: " ^ e))

let test_kway_single_device () =
  (* c17 maps to a couple of CLBs: one XC3020 suffices. *)
  let h = mapped_hypergraph (Netlist.Generator.c17 ()) in
  match Kway.partition ~options:small_options ~library:Fpga.Library.xc3000 h with
  | Error e -> Alcotest.fail e
  | Ok r ->
      checki "one part" 1 r.Kway.summary.Fpga.Cost.num_partitions;
      checkb "sound" true (Result.is_ok (Kway.check h r));
      checkb "cheapest device" true
        (r.Kway.summary.Fpga.Cost.total_cost <= 100.0)

let test_kway_multi_device () =
  let h = mapped_hypergraph (Netlist.Generator.multiplier ~bits:16 ()) in
  checkb "needs more than one device" true
    (Hypergraph.total_area h > Fpga.Device.max_clbs (Fpga.Library.largest Fpga.Library.xc3000));
  match Kway.partition ~options:small_options ~library:Fpga.Library.xc3000 h with
  | Error e -> Alcotest.fail e
  | Ok r -> (
      checkb "k >= 2" true (r.Kway.summary.Fpga.Cost.num_partitions >= 2);
      match Kway.check h r with
      | Ok () -> ()
      | Error e -> Alcotest.fail ("unsound partition: " ^ e))

let test_kway_with_replication () =
  let h = mapped_hypergraph (Netlist.Generator.multiplier ~bits:16 ()) in
  let options =
    Kway.Options.make ~base:small_options ~replication:(`Functional 0) ()
  in
  match Kway.partition ~options ~library:Fpga.Library.xc3000 h with
  | Error e -> Alcotest.fail e
  | Ok r -> (
      match Kway.check h r with
      | Ok () ->
          checkb "replication within bounds" true
            (r.Kway.replicated_cells >= 0
            && r.Kway.replicated_cells <= r.Kway.total_cells)
      | Error e -> Alcotest.fail ("unsound partition: " ^ e))

let test_kway_deterministic () =
  let h = mapped_hypergraph (Netlist.Generator.ecc ~data_bits:24 ()) in
  let go () =
    match Kway.partition ~options:small_options ~library:Fpga.Library.xc3000 h with
    | Error e -> Alcotest.fail e
    | Ok r ->
        ( r.Kway.summary.Fpga.Cost.total_cost,
          r.Kway.summary.Fpga.Cost.total_iobs,
          r.Kway.summary.Fpga.Cost.num_partitions )
  in
  let a = go () and b = go () in
  checkb "same options, same result" true (a = b)

let test_kway_check_catches_corruption () =
  let h = mapped_hypergraph (Netlist.Generator.c17 ()) in
  match Kway.partition ~options:small_options ~library:Fpga.Library.xc3000 h with
  | Error e -> Alcotest.fail e
  | Ok r ->
      (* Drop a member: coverage must fail. *)
      let broken =
        match r.Kway.parts with
        | p :: rest ->
            { r with Kway.parts = { p with Kway.members = List.tl p.Kway.members } :: rest }
        | [] -> r
      in
      checkb "detects missing output" true (Result.is_error (Kway.check h broken))

let test_kway_check_catches_bad_iobs_and_summary () =
  (* The recorded per-part IOBs and the summary figures are validated
     against recounts: corrupting any of them must be rejected while the
     pristine result still passes. *)
  let h = mapped_hypergraph (Netlist.Generator.multiplier ~bits:16 ()) in
  match Kway.partition ~options:small_options ~library:Fpga.Library.xc3000 h with
  | Error e -> Alcotest.fail e
  | Ok r ->
      checkb "pristine result accepted" true (Result.is_ok (Kway.check h r));
      let corrupt_first_part f =
        match r.Kway.parts with
        | p :: rest -> { r with Kway.parts = f p :: rest }
        | [] -> r
      in
      let bad_iobs = corrupt_first_part (fun p -> { p with Kway.iobs = p.Kway.iobs + 1 }) in
      checkb "detects inflated part iobs" true
        (Result.is_error (Kway.check h bad_iobs));
      let starved_iobs =
        corrupt_first_part (fun p -> { p with Kway.iobs = p.Kway.iobs - 1 })
      in
      checkb "detects deflated part iobs" true
        (Result.is_error (Kway.check h starved_iobs));
      let bad_cost =
        {
          r with
          Kway.summary =
            { r.Kway.summary with Fpga.Cost.total_cost = r.Kway.summary.Fpga.Cost.total_cost +. 1.0 };
        }
      in
      checkb "detects wrong summary cost" true
        (Result.is_error (Kway.check h bad_cost));
      let bad_repl = { r with Kway.replicated_cells = r.Kway.replicated_cells + 1 } in
      checkb "detects wrong replication figure" true
        (Result.is_error (Kway.check h bad_repl));
      (* A secondary axis: move the first part of a multi-personality
         result onto a twin of its device with the same CLB/IO counts but
         one flip-flop too few. Only the objective's vector test sees it. *)
      let h =
        mapped_hypergraph
          (Netlist.Generator.random ~rng:(Netlist.Rng.create 3) ~num_inputs:8
             ~num_gates:200 ~num_dff:24 ~num_outputs:8 ())
      in
      let objective = Fpga.Objective.multi_personality in
      let options = Kway.Options.make ~base:small_options ~objective () in
      match Kway.partition ~options ~library:Fpga.Library.xc3000 h with
      | Error e -> Alcotest.fail e
      | Ok r -> (
          checkb "multi-personality result accepted" true
            (Result.is_ok (Kway.check ~objective h r));
          match r.Kway.parts with
          | [] -> Alcotest.fail "no parts"
          | p :: rest ->
              let ffs = p.Kway.used.(Fpga.Resource.ff) in
              checkb "sequential part needs flip-flops" true (ffs > 0);
              let d = p.Kway.device in
              let resources = Array.copy d.Fpga.Device.resources in
              resources.(Fpga.Resource.ff) <- ffs - 1;
              let twin =
                Fpga.Device.make_vector ~name:(d.Fpga.Device.name ^ "-ff")
                  ~resources ~price:d.Fpga.Device.price
                  ~res_low:d.Fpga.Device.res_low
                  ~res_high:d.Fpga.Device.res_high ()
              in
              let starved =
                { r with Kway.parts = { p with Kway.device = twin } :: rest }
              in
              checkb "scalar test ignores flip-flops" true
                (Result.is_ok (Kway.check h starved));
              checkb "detects part over its device's FF cap" true
                (Result.is_error (Kway.check ~objective h starved)))

(* ------------------------------------------------------------------ *)
(* Telemetry and generated-circuit properties                         *)
(* ------------------------------------------------------------------ *)

let fm_pass_events obs =
  List.filter
    (fun e -> e.Obs.Snapshot.name = "fm.pass")
    (Obs.snapshot obs).Obs.Snapshot.events

let event_int e key =
  match List.assoc_opt key e.Obs.Snapshot.fields with
  | Some (Obs.Json.Int i) -> i
  | _ -> Alcotest.failf "fm.pass event lacks int field %s" key

let qcheck_fm_telemetry_invariants =
  (* Per-pass telemetry must satisfy the structural invariants of the
     algorithm: at most one applied op per cell, rollback within the pass's
     own ops, replication acceptance within attempts, and the last event's
     cut equal to the state's recomputed cut. *)
  QCheck.Test.make ~name:"fm.pass telemetry invariants" ~count:30
    QCheck.(pair small_int (int_range 8 30))
    (fun (seed, n_cells) ->
      let h = Test_util.random_hypergraph seed n_cells in
      let cfg =
        Fm.balance_config ~replication:(`Functional 0) ~slack:0.3
          ~total_area:(Hypergraph.total_area h) ()
      in
      let st = Fm.random_state (Netlist.Rng.create (seed + 13)) h in
      let obs = Obs.create () in
      ignore (Fm.run ~obs cfg st);
      let passes = fm_pass_events obs in
      let n = Hypergraph.num_cells h in
      let each_ok =
        List.for_all
          (fun e ->
            let applied = event_int e "applied" in
            let rolled_back = event_int e "rolled_back" in
            let attempted = event_int e "repl_attempted" in
            let accepted = event_int e "repl_accepted" in
            applied >= 0 && applied <= n
            && rolled_back >= 0
            && rolled_back <= applied
            && accepted >= 0 && accepted <= attempted
            && attempted <= applied)
          passes
      in
      let last_ok =
        match List.rev passes with
        | [] -> false (* max_passes > 0 always emits at least one event *)
        | last :: _ ->
            let cut, term_a, term_b, _, _ = Partition_state.recompute st in
            event_int last "cut" = cut
            && event_int last "terminals" = term_a + term_b
      in
      each_ok && last_ok)

let qcheck_kway_sound_on_generated_circuits =
  (* End-to-end hardening: for random generated circuits the driver's Ok
     results always pass the strengthened check, and the telemetry stays
     within the same structural bounds (sub-problems never exceed the
     original cell count). *)
  QCheck.Test.make ~name:"k-way Ok results pass check on generated circuits"
    ~count:8
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let rng = Netlist.Rng.create seed in
      let c =
        Netlist.Generator.random ~rng ~num_inputs:(8 + (seed mod 7))
          ~num_gates:(140 + (seed mod 120))
          ~num_dff:(seed mod 9)
          ~num_outputs:(6 + (seed mod 5))
          ()
      in
      let h = mapped_hypergraph c in
      let options =
        Kway.Options.make ~runs:2 ~seed:(seed + 1)
          ~replication:(`Functional 0)
          ~jobs:(Parallel.Pool.jobs_from_env ())
          ()
      in
      let obs = Obs.create () in
      match Kway.partition ~obs ~options ~library:Fpga.Library.xc3000 h with
      | Error _ -> true (* infeasible random instances are acceptable *)
      | Ok r ->
          let sound =
            match Kway.check h r with
            | Ok () -> true
            | Error e -> QCheck.Test.fail_reportf "unsound: %s" e
          in
          let n = Hypergraph.num_cells h in
          let telemetry_ok =
            List.for_all
              (fun e ->
                let applied = event_int e "applied" in
                applied <= n && event_int e "rolled_back" <= applied)
              (fm_pass_events obs)
          in
          sound && telemetry_ok)

let qcheck_warm_start_sound_and_close =
  (* The incremental contract: projecting a base partition onto a small
     random edit and warm-starting yields a feasible, check-clean result
     whose cost stays within a constant factor of a cold run on the
     edited circuit. Also pins the projection bookkeeping the service
     relies on (dirty covers every unlabelled cell), and that a warm start
     with every cell clean returns exactly [Kway.project_parts] of the
     same labels and devices. *)
  QCheck.Test.make ~name:"warm start is sound and near cold cost" ~count:6
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let rng = Netlist.Rng.create (seed + 17) in
      let c =
        Netlist.Generator.random ~rng ~num_inputs:8
          ~num_gates:(120 + (seed mod 80))
          ~num_dff:(seed mod 6) ~num_outputs:8 ()
      in
      let delta = Netlist.Delta.random ~seed ~frac:0.04 c in
      match Netlist.Delta.apply c delta with
      | Error e ->
          QCheck.Test.fail_reportf "delta apply failed: %s"
            (Netlist.Delta.error_to_string e)
      | Ok edited -> (
          let base_h = mapped_hypergraph c in
          let edited_h = mapped_hypergraph edited in
          let options =
            Kway.Options.make ~runs:2 ~seed:(seed + 1)
              ~jobs:(Parallel.Pool.jobs_from_env ())
              ()
          in
          let library = Fpga.Library.xc3000 in
          match
            ( Kway.partition ~options ~library base_h,
              Kway.partition ~options ~library edited_h )
          with
          | Error _, _ | _, Error _ ->
              true (* infeasible random instances are acceptable *)
          | Ok base, Ok cold -> (
              let warm, proj =
                Kway.project_warm ~base:base_h ~base_parts:base.Kway.parts
                  edited_h
              in
              let dirty_covers_unlabelled =
                Array.for_all2
                  (fun l d -> l >= 0 || d)
                  proj.Projection.labels proj.Projection.dirty
              in
              (* With every cell clean nothing may move, so the warm start
                 is exactly the materialisation of the base labelling. A
                 library of small devices splits the base into parts (the
                 XC3000 base above is mostly one part). *)
              let small =
                Fpga.Library.make
                  [
                    Fpga.Device.make ~name:"S16" ~capacity:16 ~terminals:40
                      ~price:30.0 ();
                    Fpga.Device.make ~name:"S24" ~capacity:24 ~terminals:56
                      ~price:40.0 ();
                  ]
              in
              let shape (p : Kway.part) =
                ( p.Kway.device.Fpga.Device.name,
                  p.Kway.members,
                  p.Kway.clbs,
                  p.Kway.iobs,
                  p.Kway.used )
              in
              let clean_is_projection =
                match Kway.partition ~options ~library:small base_h with
                | Error _ -> true
                | Ok split -> (
                    let labels, _ = Kway.labels_of_parts base_h split.Kway.parts in
                    let devices =
                      Array.of_list
                        (List.map (fun p -> p.Kway.device) split.Kway.parts)
                    in
                    let clean =
                      {
                        Kway.w_labels = labels;
                        w_dirty = Array.make (Array.length labels) false;
                        w_devices = devices;
                      }
                    in
                    match
                      ( Kway.warm_start ~options ~library:small ~warm:clean
                          base_h,
                        Kway.project_parts ~options ~library:small ~labels
                          ~devices base_h )
                    with
                    | Ok w, Ok parts ->
                        List.map shape w.Kway.parts = List.map shape parts
                    | Error a, Error b -> String.equal a b
                    | _ -> false)
              in
              match Kway.warm_start ~options ~library ~warm edited_h with
              | Error e ->
                  QCheck.Test.fail_reportf "warm start failed: %s" e
              | Ok w ->
                  (match Kway.check edited_h w with
                  | Ok () -> ()
                  | Error e ->
                      ignore (QCheck.Test.fail_reportf "warm unsound: %s" e));
                  let cold_cost = cold.Kway.summary.Fpga.Cost.total_cost in
                  let warm_cost = w.Kway.summary.Fpga.Cost.total_cost in
                  if warm_cost > 1.5 *. cold_cost then
                    QCheck.Test.fail_reportf
                      "warm cost %.1f too far above cold %.1f" warm_cost
                      cold_cost
                  else if not clean_is_projection then
                    QCheck.Test.fail_report
                      "clean warm start differs from project_parts"
                  else dirty_covers_unlabelled)))

(* The identity edit at the engine level: projecting a partition onto its
   own hypergraph marks no cell dirty and adds none, and the warm start
   hands the base parts back unchanged. A replicated base cell is the one
   exception: the projection keeps only its dominant part, so exactly
   the replicated cells come back dirty. *)
let test_warm_identity () =
  let count_true = Array.fold_left (fun a d -> if d then a + 1 else a) 0 in
  let shape (p : Kway.part) =
    ( p.Kway.device.Fpga.Device.name,
      p.Kway.members,
      p.Kway.clbs,
      p.Kway.iobs,
      p.Kway.used )
  in
  let partition ~options ~library h =
    match Kway.partition ~options ~library h with
    | Ok r -> r
    | Error e -> Alcotest.fail e
  in
  List.iter
    (fun (name, h, options, library) ->
      let base = partition ~options ~library h in
      checki (name ^ ": base replicates nothing") 0 base.Kway.replicated_cells;
      let warm, proj = Kway.project_warm ~base:h ~base_parts:base.Kway.parts h in
      checki (name ^ ": dirty cells") 0 (count_true proj.Projection.dirty);
      checki (name ^ ": added cells") 0 proj.Projection.added;
      match Kway.warm_start ~options ~library ~warm h with
      | Error e -> Alcotest.fail (name ^ ": " ^ e)
      | Ok w ->
          checkb (name ^ ": warm parts = base parts") true
            (List.map shape w.Kway.parts = List.map shape base.Kway.parts))
    [
      ( "flat s38584",
        Lazy.force
          (Option.get (Experiments.Suite.find "s38584"))
            .Experiments.Suite.hypergraph,
        Kway.Options.make ~runs:1 ~seed:1 (),
        Fpga.Library.xc3000 );
      ("8-part greedy", Lazy.force scale10k, greedy_options, d_library 0.5);
    ];
  let h = mapped_hypergraph (Netlist.Generator.multiplier ~bits:16 ()) in
  let base =
    partition
      ~options:
        (Kway.Options.make ~base:small_options ~replication:(`Functional 0) ())
      ~library:Fpga.Library.xc3000 h
  in
  checkb "the base replicates" true (base.Kway.replicated_cells > 0);
  let appearances = Array.make (Hypergraph.num_cells h) 0 in
  List.iter
    (fun p ->
      List.iter
        (fun (c, _) -> appearances.(c) <- appearances.(c) + 1)
        p.Kway.members)
    base.Kway.parts;
  let _, proj = Kway.project_warm ~base:h ~base_parts:base.Kway.parts h in
  checkb "dirty = replicated cells" true
    (proj.Projection.dirty = Array.map (fun a -> a > 1) appearances)

(* ------------------------------------------------------------------ *)
(* Options validation and cooperative cancellation                    *)
(* ------------------------------------------------------------------ *)

let expect_invalid label f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Invalid_argument" label
  | exception Invalid_argument _ -> ()

let test_kway_options_validation () =
  (* One rejected case per field, plus the accepted boundary. *)
  expect_invalid "runs 0" (fun () -> Kway.Options.make ~runs:0 ());
  expect_invalid "runs negative" (fun () -> Kway.Options.make ~runs:(-3) ());
  expect_invalid "jobs 0" (fun () -> Kway.Options.make ~jobs:0 ());
  expect_invalid "replication threshold negative" (fun () ->
      Kway.Options.make ~replication:(`Functional (-1)) ());
  let o =
    Kway.Options.make ~runs:1 ~jobs:1 ~replication:(`Functional 0) ()
  in
  checki "boundary accepted" 1 o.Kway.runs

let test_kway_options_base () =
  (* [make ~base] takes every field the caller leaves out from [base], and
     validates its result like any other [make]. *)
  let stop () = true in
  let base =
    Kway.Options.make ~runs:7 ~seed:42 ~replication:(`Functional 2) ~jobs:2
      ~should_stop:stop ~objective:Fpga.Objective.chiplet
      ~strategy:(Kway.Multilevel Kway.Options.default_multilevel) ()
  in
  let o = Kway.Options.make ~base ~seed:43 () in
  checki "seed overridden" 43 o.Kway.seed;
  checki "runs kept" 7 o.Kway.runs;
  checkb "replication kept" true (o.Kway.replication = `Functional 2);
  checki "jobs kept" 2 o.Kway.jobs;
  checkb "should_stop kept" true (o.Kway.should_stop == stop);
  checkb "objective kept" true
    (o.Kway.objective == Fpga.Objective.chiplet);
  checkb "strategy kept" true
    (o.Kway.strategy = Kway.Multilevel Kway.Options.default_multilevel);
  expect_invalid "base, runs 0" (fun () -> Kway.Options.make ~base ~runs:0 ())

let test_fm_config_validation () =
  expect_invalid "fm balance max_passes 0" (fun () ->
      Fm.balance_config ~max_passes:0 ~total_area:10 ());
  expect_invalid "fm window max_passes negative" (fun () ->
      Fm.window_config ~max_passes:(-2)
        ~a:(device_window ~lo:2 ~hi:10 ~terminals:8 ())
        ());
  expect_invalid "fm balance threshold negative" (fun () ->
      Fm.balance_config ~replication:(`Functional (-1)) ~total_area:10 ());
  expect_invalid "fm window threshold negative" (fun () ->
      Fm.window_config ~replication:(`Functional (-1))
        ~a:(device_window ~lo:2 ~hi:10 ~terminals:8 ())
        ());
  expect_invalid "fm empty window" (fun () ->
      Fm.window_config
        ~a:(device_window ~lo:2 ~hi:10 ~terminals:8 ())
        ~b:(Fpga.Objective.narrow ~hi:1 (device_window ~lo:2 ~hi:10 ~terminals:8 ()))
        ())

let test_kway_cancellation () =
  let h = mapped_hypergraph (Netlist.Generator.alu ~bits:8 ()) in
  (* A hook that is already true cancels before any work happens. *)
  let options = Kway.Options.make ~runs:2 ~should_stop:(fun () -> true) () in
  (match Kway.partition ~options ~library:Fpga.Library.xc3000 h with
  | Error msg -> checkb "cancelled error" true (String.equal msg Kway.cancelled)
  | Ok _ -> Alcotest.fail "expected cancellation");
  (* A hook that trips after a few polls cancels mid-search. *)
  let poll_count = ref 0 in
  let options =
    Kway.Options.make ~runs:50
      ~should_stop:(fun () ->
        incr poll_count;
        !poll_count > 5)
      ()
  in
  (match Kway.partition ~options ~library:Fpga.Library.xc3000 h with
  | Error msg -> checkb "mid-run cancel" true (String.equal msg Kway.cancelled)
  | Ok _ -> Alcotest.fail "expected mid-run cancellation");
  checkb "hook was polled" true (!poll_count > 5)

(* Coarsening polls the stop hook before each level: a stop that is
   already set builds nothing, so a multilevel [Kway.partition] reports
   no level and returns before the coarse solve. *)
let test_multilevel_cancellation () =
  (* Large enough that the multilevel run coarsens it. *)
  let h = s38584_hypergraph () in
  let polls = ref 0 in
  let hier =
    Coarsen.hierarchy
      ~should_stop:(fun () ->
        incr polls;
        !polls > 1)
      ~rng:(Netlist.Rng.create 1) h
  in
  checki "one level, then the stop" 1 (Coarsen.num_levels hier);
  let obs = Obs.create () in
  let options =
    Kway.Options.make ~runs:2 ~should_stop:(fun () -> true)
      ~strategy:(Kway.Multilevel Kway.Options.default_multilevel) ()
  in
  (match Kway.partition ~obs ~options ~library:Fpga.Library.xc3000 h with
  | Error msg -> checkb "cancelled error" true (String.equal msg Kway.cancelled)
  | Ok _ -> Alcotest.fail "expected cancellation");
  checki "no ml.level" 0
    (Option.value ~default:0
       (List.assoc_opt "ml.level" (Obs.snapshot obs).Obs.Snapshot.counters))

let test_kway_default_hook_inert () =
  (* The default hook must not change results: same seed, with and
     without an explicitly-false hook, byte-identical telemetry. *)
  let h = mapped_hypergraph (Netlist.Generator.c17 ()) in
  let doc options =
    let obs = Obs.create () in
    match Kway.partition ~obs ~options ~library:Fpga.Library.xc3000 h with
    | Error e -> Alcotest.fail e
    | Ok _ ->
        Obs.Json.to_string
          (Obs.Snapshot.scrub_elapsed (Obs.Snapshot.to_json (Obs.snapshot obs)))
  in
  let base = doc (Kway.Options.make ~runs:2 ()) in
  let hooked = doc (Kway.Options.make ~runs:2 ~should_stop:(fun () -> false) ()) in
  checkb "hook never changes telemetry" true (String.equal base hooked)

let () =
  Alcotest.run "core"
    [
      ( "replication_potential",
        [
          Alcotest.test_case "Fig. 1 psi" `Quick test_psi_fig1;
          Alcotest.test_case "Fig. 2 psi" `Quick test_psi_fig2;
          Alcotest.test_case "single output" `Quick test_psi_single_output;
          Alcotest.test_case "edge supports" `Quick test_psi_disjoint_and_identical;
          Alcotest.test_case "distribution + r_T" `Quick test_distribution;
          Alcotest.test_case "threshold gate" `Quick test_replicable_threshold;
          qc qcheck_psi_matches_reference;
          Alcotest.test_case "cell_nets memo on the suite" `Quick
            test_cell_nets_memo;
          qc qcheck_cell_nets_memo;
        ] );
      ( "gain",
        [
          Alcotest.test_case "Fig. 4 golden gains" `Quick test_gain_fig4_golden;
          Alcotest.test_case "threshold blocks replication" `Quick
            test_gain_threshold_blocks;
          qc qcheck_formula_matches_eval;
          qc qcheck_functional_gain_positive_cases;
          Alcotest.test_case "no duplicate candidates" `Quick
            test_no_duplicate_candidates;
          Alcotest.test_case "candidate operations" `Quick
            test_candidate_operations;
        ] );
      ( "bucket",
        [
          Alcotest.test_case "basics" `Quick test_bucket_basics;
          Alcotest.test_case "clamping" `Quick test_bucket_clamping;
          Alcotest.test_case "errors" `Quick test_bucket_errors;
          Alcotest.test_case "update fast path order" `Quick
            test_bucket_update_fast_path_order;
          Alcotest.test_case "top decay + interleaving" `Quick
            test_bucket_top_decay_and_interleaving;
          qc qcheck_bucket_matches_model;
        ] );
      ( "fm",
        [
          Alcotest.test_case "improves within balance" `Quick
            test_fm_improves_and_respects_balance;
          Alcotest.test_case "replication beats moves on Fig. 4" `Quick
            test_fm_replication_beats_plain_on_fig4;
          Alcotest.test_case "threshold respected" `Quick
            test_fm_replication_respects_threshold;
          Alcotest.test_case "replication helps on clustered" `Quick
            test_fm_replication_reduces_cut_on_clustered;
          qc qcheck_fm_leaves_consistent_state;
          qc qcheck_incremental_gains_exact;
          Alcotest.test_case "oracle mode identical" `Quick
            test_fm_oracle_mode_identical;
          qc qcheck_fm_oracle_never_trips;
          Alcotest.test_case "staged never worse" `Quick test_fm_staged_never_worse;
          qc qcheck_fm_staged_workspace_fresh;
          Alcotest.test_case "concurrent runs = sequential runs" `Quick
            test_fm_concurrent_runs;
          Alcotest.test_case "traditional model weaker" `Quick
            test_fm_traditional_model_weaker;
          Alcotest.test_case "two-device refinement config" `Quick
            test_two_device_config;
          qc qcheck_fm_score_matches_reference;
          Alcotest.test_case "candidate evaluation allocates nothing" `Quick
            test_fm_candidates_allocation_free;
          Alcotest.test_case "words per applied move" `Quick
            test_fm_run_words_per_move;
        ] );
      ( "coarsen",
        [
          Alcotest.test_case "structure" `Quick test_coarsen_structure;
          Alcotest.test_case "fallback net" `Quick test_coarsen_fallback_net;
          Alcotest.test_case "pin budget" `Quick test_coarsen_respects_pin_budget;
          Alcotest.test_case "per-axis weight caps" `Quick
            test_coarsen_weight_caps;
          qc qcheck_projection_sound;
          Alcotest.test_case "multilevel jobs-independent" `Quick
            test_multilevel_jobs_stable;
          qc qcheck_coarsen_reference;
          Alcotest.test_case "= reference on the suite" `Quick
            test_coarsen_reference_suite;
          Alcotest.test_case "allocation (s38584)" `Quick
            test_coarsen_allocation;
          Alcotest.test_case "stalled level unbuilt" `Quick
            test_stalled_level_unbuilt;
          qc qcheck_project_parts_reference;
          Alcotest.test_case "project_parts allocation (s38584)" `Quick
            test_project_parts_allocation;
          Alcotest.test_case "greedy walk allocation" `Quick
            test_multilevel_greedy_allocation;
          Alcotest.test_case "greedy walk allocation (88 parts)" `Quick
            test_greedy_many_parts_allocation;
          Alcotest.test_case "greedy walk results (one device)" `Quick
            test_greedy_pins;
          Alcotest.test_case "greedy walk replicates" `Quick
            test_greedy_walk_replicates;
          Alcotest.test_case "V-cycle span shape" `Quick test_vcycle_span_shape;
        ] );
      ( "kway",
        [
          Alcotest.test_case "single device" `Quick test_kway_single_device;
          Alcotest.test_case "multiple devices" `Quick test_kway_multi_device;
          Alcotest.test_case "with replication" `Quick test_kway_with_replication;
          Alcotest.test_case "deterministic" `Quick test_kway_deterministic;
          Alcotest.test_case "check catches corruption" `Quick
            test_kway_check_catches_corruption;
          Alcotest.test_case "check catches bad iobs/summary" `Quick
            test_kway_check_catches_bad_iobs_and_summary;
          Alcotest.test_case "refinement not worse" `Quick
            test_kway_refinement_not_worse;
          Alcotest.test_case "alternative library" `Quick test_kway_xc4000;
          Alcotest.test_case "demand arity pinned" `Quick test_demand_arity_pin;
          Alcotest.test_case "all builtin objectives" `Quick
            test_kway_objectives;
          Alcotest.test_case "allocation (s15850)" `Quick
            (kway_allocation "s15850" 0.5e6);
          Alcotest.test_case "allocation (s38584)" `Quick
            (kway_allocation "s38584" 1.2e6);
          Alcotest.test_case "restarts on 3 domains" `Quick
            test_kway_parallel_restarts;
          Alcotest.test_case "warm allocation (s38584)" `Quick
            test_kway_warm_allocation;
          Alcotest.test_case "kits carry no state between jobs" `Quick
            test_kits_between_jobs;
          Alcotest.test_case "dominated device pruned" `Quick
            test_dominated_device;
        ] );
      ( "telemetry",
        [
          qc qcheck_fm_telemetry_invariants;
          qc qcheck_kway_sound_on_generated_circuits;
        ] );
      ( "warm start",
        [
          qc qcheck_warm_start_sound_and_close;
          Alcotest.test_case "empty-delta identity" `Quick test_warm_identity;
        ] );
      ( "options",
        [
          Alcotest.test_case "kway validation" `Quick
            test_kway_options_validation;
          Alcotest.test_case "kway make ~base" `Quick test_kway_options_base;
          Alcotest.test_case "fm validation" `Quick test_fm_config_validation;
          Alcotest.test_case "cancellation" `Quick test_kway_cancellation;
          Alcotest.test_case "multilevel cancellation" `Quick
            test_multilevel_cancellation;
          Alcotest.test_case "default hook inert" `Quick
            test_kway_default_hook_inert;
        ] );
      (* Last: it randomizes every hash table created after it. *)
      ( "hash seed",
        [
          Alcotest.test_case "coarsening independent of Hashtbl.randomize"
            `Quick test_coarsen_hash_seed_independent;
        ] );
    ]
