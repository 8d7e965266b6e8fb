type objective = Fpga.Objective.fm_objective

let objective_value obj st =
  match obj with
  | `Cut -> Partition_state.cut st
  | `Terminals ->
      Partition_state.terminals st Partition_state.A
      + Partition_state.terminals st Partition_state.B

type score = int * int * int

(* A score as three mutable ints: the engine scores the state after every
   applied move into these and compares them with the tuple's
   lexicographic order, so scoring a prefix allocates nothing. *)
type registers = { mutable pen : int; mutable obj : int; mutable pref : int }

let never_stop () = false

let every_cell _ = true

type bounds =
  | Halves of { cap : int }
  | Split of Fpga.Objective.window
  | Pair of Fpga.Objective.window * Fpga.Objective.window

type config = {
  objective : objective;
  replication : [ `None | `Functional of int ];
  max_passes : int;
  bounds : bounds;
  should_stop : unit -> bool;
  oracle : bool;
  active : int -> bool;
}

let make ~objective ~replication ~max_passes ?(should_stop = never_stop)
    ?(active = every_cell) bounds =
  if max_passes <= 0 then
    invalid_arg
      (Printf.sprintf "Fm: max_passes must be positive (got %d)" max_passes);
  (match replication with
  | `Functional t when t < 0 ->
      invalid_arg
        (Printf.sprintf
           "Fm: replication threshold must be non-negative (got %d)" t)
  | `None | `Functional _ -> ());
  { objective; replication; max_passes; bounds; should_stop; oracle = false;
    active }

let with_oracle cfg = { cfg with oracle = true }

(* The hard area cap of one side: a window's cap keeps the side from
   overshooting its device wildly (the rest of the feasibility hunt
   happens through the penalty); the split's remainder has none. *)
let window_cap (w : Fpga.Objective.window) = w.hi.(0) + (w.hi.(0) / 4) + 1

let cap_a = function
  | Halves { cap } -> cap
  | Split a | Pair (a, _) -> window_cap a

let cap_b = function
  | Halves { cap } -> cap
  | Split _ -> max_int
  | Pair (_, b) -> window_cap b

(* How far one side lies outside its window: CLB window and terminal
   budget, plus the secondary axes the window constrains (none under the
   paper's scalar feasibility, so the loop runs zero times). Secondary
   overflow is a soft penalty like the terminal budget, never part of the
   area caps, so the hot loop's legality check stays two integer
   compares. *)
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

(* The one scoring function: penalty, objective and preference of the
   state under the config's bounds, written into [r].
   - Halves: the larger side's overflow of the cap; no preference.
   - Split: side A's distance from its window, preferring a smaller
     remainder at equal objective: it fills the split-off device (fewer,
     better-used devices cost less — objective 1) without rewarding
     gratuitous replication into side A.
   - Pair: both sides' distances, preferring less total area (shedding
     replicas at an equal objective). *)
let score_into cfg st r =
  let area_a = Partition_state.area st Partition_state.A
  and area_b = Partition_state.area st Partition_state.B in
  r.obj <- objective_value cfg.objective st;
  match cfg.bounds with
  | Halves { cap } ->
      r.pen <- max 0 (max area_a area_b - cap);
      r.pref <- 0
  | Split a ->
      r.pen <- window_pen a st Partition_state.A;
      r.pref <- area_b
  | Pair (a, b) ->
      r.pen <-
        window_pen a st Partition_state.A + window_pen b st Partition_state.B;
      r.pref <- area_a + area_b

let score_of cfg st =
  let r = { pen = 0; obj = 0; pref = 0 } in
  score_into cfg st r;
  (r.pen, r.obj, r.pref)

(* FPGAPART_FM_ORACLE=1 turns on the oracle cross-check in every run of the
   process — the tooling's way to prove the incremental engine right
   without threading a flag through every CLI. Read once at start-up, not
   lazily: F-M runs on several domains at once, and forcing one lazy value
   from two domains raises [CamlinternalLazy.Undefined]. *)
let env_oracle =
  match Sys.getenv_opt "FPGAPART_FM_ORACLE" with
  | Some ("1" | "true" | "yes") -> true
  | _ -> false

let balance_config ?(objective = `Cut) ?(replication = `None) ?(max_passes = 12)
    ?(slack = 0.10) ~total_area () =
  let cap =
    int_of_float (ceil ((1.0 +. slack) *. float_of_int total_area /. 2.0))
  in
  make ~objective ~replication ~max_passes (Halves { cap })

let window_config ?(objective = `Cut) ?(replication = `None) ?(max_passes = 12)
    ?should_stop ?active ~(a : Fpga.Objective.window)
    ?(b : Fpga.Objective.window option) () =
  let check (w : Fpga.Objective.window) =
    if w.hi.(0) < w.lo.(0) then
      invalid_arg "Fm.window_config: empty CLB window"
  in
  check a;
  Option.iter check b;
  make ~objective ~replication ~max_passes ?should_stop ?active
    (match b with None -> Split a | Some b -> Pair (a, b))

module F = Hypergraph.Flat

(* The start of the one-shot bipartition entry points: a flat form of
   [hg] of their own (their states outlive the call, so it is not a
   domain's root), and per call of the returned function a fresh state
   over it with a random half/half assignment. *)
let random_flat_state hg =
  let g = F.of_hypergraph hg in
  fun rng ->
    let n = F.num_cells g in
    let order = Array.init n Fun.id in
    Netlist.Rng.shuffle rng order;
    let on_b = Array.make n false in
    Array.iteri (fun k c -> if k < n / 2 then on_b.(c) <- true) order;
    Partition_state.create g ~init_on_b:(fun c -> on_b.(c))

let random_state rng hg = random_flat_state hg rng

let flip current o =
  if Bitvec.mem o current then Bitvec.remove o current
  else Bitvec.add o current

(* Candidate masks are generated each exactly once, so no dedupe pass (or
   allocation) is needed downstream. The collisions a dedupe would absorb
   are structural and excluded at the source:
   - a single-output cell's one "migration" flip IS the whole-cell
     complement (never generated twice: replication is gated on m > 1, and
     the replicated branch requires m >= 2);
   - for a replicated cell, flipping its only B-output regenerates [empty]
     and flipping its only A-output regenerates [full], so the explicit
     un-replication masks are emitted only when no flip produced them.
   The complement of a replicated mask differs from the current mask in
   every one of the m >= 2 output positions, so it never collides with a
   single-bit flip; and [empty]/[full] equal the complement only when the
   cell is single-sided, in which case the replicated branch is dead. *)
let iter_masks st ~replication cell ~f =
  let g = Partition_state.graph st in
  let m = g.F.outputs.(cell) in
  let current = Partition_state.mask st cell in
  (* Whole-cell move / side swap of all outputs. *)
  let comp = Bitvec.complement m current in
  if not (Bitvec.equal comp current) then f comp;
  if Partition_state.is_replicated st cell then begin
    (* Already replicated: adjust the split or un-replicate. Split
       adjustment and un-replication are always allowed -- the threshold
       gates creating replicas, not removing them. *)
    for o = 0 to m - 1 do
      f (flip current o)
    done;
    if Bitvec.norm current <> 1 then f Bitvec.empty;
    if Bitvec.norm current <> m - 1 then f (Bitvec.full m)
  end
  else
    (* Replication creation: migrate one output. *)
    match replication with
    | `None -> ()
    | `Functional threshold ->
        if m > 1 && Replication_potential.replicable ~threshold g cell then
          for o = 0 to m - 1 do
            f (flip current o)
          done

(* Whole-cell moves are the classic F-M operation; every other mask change
   (output migration, split adjustment, un-replication) belongs to the
   replication extension. Telemetry attributes ops to the two families. *)
let is_replication_op ~old_mask ~new_mask ~full =
  not
    ((Bitvec.is_empty old_mask && Bitvec.equal new_mask full)
    || (Bitvec.equal old_mask full && Bitvec.is_empty new_mask))

(* Everything a run needs in proportion to the graph: the bucket, the
   chosen op per cell unpacked into int arrays (Bitvec.t = int; masks are
   >= 0, so op_mask = -1 encodes "no candidate"), the lock flags, the
   epoch stamps, the rollback trail and the score registers. The arrays
   may be longer than the graph: a workspace outlives its run (see
   [with_workspace]) and only grows. Every run starts with [reset], so it
   sees exactly what a fresh workspace for its graph would hold. *)
type workspace = {
  bucket : Bucket.t;
  mutable op_mask : int array;
  mutable op_gain : int array;  (* the bucket key: -delta of the objective *)
  mutable op_tie : int array;   (* the area tie-break *)
  mutable op_da : int array;    (* area deltas legality needs *)
  mutable op_db : int array;
  mutable locked : bool array;
  mutable stamp : int array;
  mutable trail_cell : int array;
  mutable trail_old : int array;
  sc : Partition_state.scratch;
  regs : registers;
}

let workspace () =
  {
    bucket = Bucket.create ~num_items:0 ~max_gain:0;
    op_mask = [||];
    op_gain = [||];
    op_tie = [||];
    op_da = [||];
    op_db = [||];
    locked = [||];
    stamp = [||];
    trail_cell = [||];
    trail_old = [||];
    sc = Partition_state.make_scratch ();
    regs = { pen = 0; obj = 0; pref = 0 };
  }

(* The starting state of a run on [g]: the bucket clamps to this graph's
   gain range, as a fresh one would (a wider range left from an earlier
   graph would clamp differently), and the first [n] slots of each array
   hold their fresh values.
   The trail, the scratch and the registers are written before they are
   read, so they need none. *)
let reset ws g =
  let n = F.num_cells g in
  Bucket.reset ws.bucket ~num_items:n ~max_gain:((2 * g.F.max_degree) + 2);
  if n > Array.length ws.op_mask then begin
    ws.op_mask <- Array.make n 0;
    ws.op_gain <- Array.make n 0;
    ws.op_tie <- Array.make n 0;
    ws.op_da <- Array.make n 0;
    ws.op_db <- Array.make n 0;
    ws.locked <- Array.make n false;
    ws.stamp <- Array.make n 0;
    ws.trail_cell <- Array.make n 0;
    ws.trail_old <- Array.make n 0
  end;
  Array.fill ws.op_mask 0 n (-1);
  Array.fill ws.op_gain 0 n 0;
  Array.fill ws.op_tie 0 n 0;
  Array.fill ws.op_da 0 n 0;
  Array.fill ws.op_db 0 n 0;
  Array.fill ws.locked 0 n false;
  Array.fill ws.stamp 0 n (-1)

(* One workspace per domain, kept between runs ([Parallel.Slot]): a
   run nested in a config callback, or on another systhread of the
   domain, works in a workspace of its own. *)
let slot = Parallel.Slot.make workspace

let with_workspace f = Parallel.Slot.use slot f

(* Lexicographic [<] on (penalty, objective, preference) triples, the
   order of the [score] tuple's polymorphic compare. *)
let[@inline] lex_lt (p : int) (o : int) (q : int) (p' : int) (o' : int)
    (q' : int) =
  p < p' || (p = p' && (o < o' || (o = o' && q < q')))

let run_in ws ~obs cfg st =
  let g = Partition_state.graph st in
  let n = F.num_cells g in
  reset ws g;
  let {
    bucket;
    op_mask;
    op_gain;
    op_tie;
    op_da;
    op_db;
    locked;
    stamp;
    trail_cell;
    trail_old;
    sc;
    regs;
  } =
    ws
  in
  let observing = Obs.enabled obs in
  let oracle = cfg.oracle || env_oracle in
  let pass_idx = ref 0 in
  (* Epoch stamps dedupe the per-move dirty set: a neighbour shared by
     several state-changed nets of the moved cell is visited once per
     move, not once per shared net. The epoch restarts at 0 with the
     stamps reset to -1. *)
  let epoch = ref 0 in
  (* Best-candidate registers written by [consider]; hoisting the closure
     out of the loop keeps candidate evaluation allocation-free. *)
  let cur = ref 0 in
  let found = ref false in
  let bm = ref (-1) and bg = ref 0 and bt = ref 0 in
  let bda = ref 0 and bdb = ref 0 in
  let scratch_obj () =
    match cfg.objective with
    | `Cut -> sc.Partition_state.sc_cut
    | `Terminals -> sc.Partition_state.sc_term_a + sc.Partition_state.sc_term_b
  in
  (* Maximise gain, tie-break on the smallest area growth (prefer plain
     moves over creating replicas when equal). First generated wins
     further ties, and iter_masks generates deterministically. *)
  let consider mask =
    Partition_state.eval_into st !cur mask sc;
    let g = -scratch_obj () in
    let tie =
      -(sc.Partition_state.sc_area_a + sc.Partition_state.sc_area_b)
    in
    if (not !found) || g > !bg || (g = !bg && tie > !bt) then begin
      found := true;
      bm := mask;
      bg := g;
      bt := tie;
      bda := sc.Partition_state.sc_area_a;
      bdb := sc.Partition_state.sc_area_b
    end
  in
  let compute_best cell =
    cur := cell;
    found := false;
    iter_masks st ~replication:cfg.replication cell ~f:consider
  in
  let rescored = ref 0 in
  let rescore cell =
    compute_best cell;
    if not !found then begin
      op_mask.(cell) <- -1;
      Bucket.remove bucket cell
    end
    else begin
      op_mask.(cell) <- !bm;
      op_gain.(cell) <- !bg;
      op_tie.(cell) <- !bt;
      op_da.(cell) <- !bda;
      op_db.(cell) <- !bdb;
      Bucket.update bucket cell !bg
    end
  in
  (* The one legality test: after the cell's op, neither side exceeds
     its hard area cap. *)
  let cap_a = cap_a cfg.bounds and cap_b = cap_b cfg.bounds in
  let legal cell =
    op_mask.(cell) >= 0
    && Partition_state.area st Partition_state.A + op_da.(cell) <= cap_a
    && Partition_state.area st Partition_state.B + op_db.(cell) <= cap_b
  in
  (* Bucket-scan length: how many candidates find_best inspected before
     one passed the legality predicate. Observed into a histogram only
     when a sink listens. *)
  let scanned = ref 0 in
  let select_pred cell =
    Stdlib.incr scanned;
    legal cell
  in
  let find_best () =
    scanned := 0;
    let r = Bucket.find_best bucket select_pred in
    if observing then Obs.observe obs "fm.scan_len" !scanned;
    r
  in
  (* Visit one cell of a state-changed net: rescore it once per move. *)
  let visit_cell cell =
    if (not locked.(cell)) && stamp.(cell) <> !epoch then begin
      stamp.(cell) <- !epoch;
      Stdlib.incr rescored;
      rescore cell
    end
  in
  let visit_net net =
    for k = g.F.net_off.(net) to g.F.net_off.(net + 1) - 1 do
      visit_cell g.F.net_cell.(k)
    done
  in
  (* Oracle mode: after each move, recompute the best op of every unlocked
     cell sharing a net with the moved cell — the complete set whose gains
     could have changed (apply only touches counts of the moved cell's
     incident nets) — and compare against the cached op. The sweep only
     reads state, so an oracle run makes byte-identical decisions; it can
     only abort. *)
  let oracle_check moved =
    let seen = Hashtbl.create 64 in
    let check cell =
      if (not locked.(cell)) && not (Hashtbl.mem seen cell) then begin
        Hashtbl.add seen cell ();
        let had = op_mask.(cell) >= 0 in
        let cm = op_mask.(cell)
        and cg = op_gain.(cell)
        and ct = op_tie.(cell)
        and cda = op_da.(cell)
        and cdb = op_db.(cell) in
        compute_best cell;
        let ok =
          if not !found then not had
          else had && cm = !bm && cg = !bg && ct = !bt && cda = !bda
               && cdb = !bdb
        in
        if not ok then
          failwith
            (Printf.sprintf
               "Fm oracle: stale cached op for cell %d after moving cell %d \
                (cached mask=%d gain=%d tie=%d da=%d db=%d; fresh %s mask=%d \
                gain=%d tie=%d da=%d db=%d)"
               cell moved cm cg ct cda cdb
               (if !found then "found" else "none")
               !bm !bg !bt !bda !bdb)
      end
    in
    for k = g.F.cell_off.(moved) to g.F.cell_off.(moved + 1) - 1 do
      let net = g.F.inc_net.(k) in
      for i = g.F.net_off.(net) to g.F.net_off.(net + 1) - 1 do
        check g.F.net_cell.(i)
      done
    done
  in
  (* The trail holds (cell, pre-move mask): each cell is applied at most
     once per pass, so n slots suffice. *)
  let one_pass () =
    Bucket.clear bucket;
    Array.fill locked 0 n false;
    (* Inactive cells are pre-locked: they never enter the bucket, are
       never rescored (pass initialisation included) and never move, so a
       warm start pays per pass only for the blast radius it declared.
       With the default predicate the branch is always taken and the pass
       is byte-identical to the unrestricted engine. *)
    for cell = 0 to n - 1 do
      if cfg.active cell then rescore cell
      else begin
        locked.(cell) <- true;
        op_mask.(cell) <- -1
      end
    done;
    let trail_len = ref 0 in
    let repl_attempted = ref 0 in
    let pass_rescored0 = !rescored in
    (* The prefix scores live in int registers, not tuples: the state is
       scored after every move. *)
    score_into cfg st regs;
    let start_pen = regs.pen and start_obj = regs.obj
    and start_pref = regs.pref in
    let best_pen = ref start_pen and best_obj = ref start_obj
    and best_pref = ref start_pref in
    let best_prefix = ref 0 in
    let continue = ref true in
    while !continue do
      let cell = find_best () in
      if cell < 0 then continue := false
      else begin
        let mask = op_mask.(cell) in
        let old_mask = Partition_state.mask st cell in
        if observing then begin
          Obs.observe obs "fm.gain" op_gain.(cell);
          if
            is_replication_op ~old_mask ~new_mask:mask
              ~full:(Partition_state.full_mask st cell)
          then incr repl_attempted
        end;
        Partition_state.apply st cell mask;
        locked.(cell) <- true;
        Bucket.remove bucket cell;
        trail_cell.(!trail_len) <- cell;
        trail_old.(!trail_len) <- old_mask;
        incr trail_len;
        (* Criticality-filtered incremental rescoring: only cells on
           nets whose side-connection category crossed a critical
           boundary (as reported by apply) can have a different best op;
           everyone else's cached op — and bucket position — is still
           exact. *)
        incr epoch;
        Partition_state.iter_changed_nets st visit_net;
        if oracle then oracle_check cell;
        score_into cfg st regs;
        if lex_lt regs.pen regs.obj regs.pref !best_pen !best_obj !best_pref
        then begin
          best_pen := regs.pen;
          best_obj := regs.obj;
          best_pref := regs.pref;
          best_prefix := !trail_len
        end
      end
    done;
    (* Roll back to the best prefix. Each cell is applied at most once per
       pass, so while undoing, the cell's current mask is exactly the mask
       the pass applied — enough to re-classify the discarded ops. *)
    let to_undo = !trail_len - !best_prefix in
    let repl_undone = ref 0 in
    for i = !trail_len - 1 downto !best_prefix do
      let cell = trail_cell.(i) and old_mask = trail_old.(i) in
      if
        observing
        && is_replication_op ~old_mask
             ~new_mask:(Partition_state.mask st cell)
             ~full:(Partition_state.full_mask st cell)
      then incr repl_undone;
      Partition_state.apply st cell old_mask
    done;
    let improved =
      lex_lt !best_pen !best_obj !best_pref start_pen start_obj start_pref
    in
    if observing then begin
      Obs.incr obs "fm.passes";
      Obs.incr obs ~by:!trail_len "fm.applied_ops";
      Obs.incr obs ~by:to_undo "fm.rolled_back_ops";
      Obs.incr obs ~by:(!rescored - pass_rescored0) "fm.rescored_cells";
      Obs.event obs "fm.pass"
        [
          ("pass", Obs.Json.Int !pass_idx);
          ("applied", Obs.Json.Int !trail_len);
          ("rolled_back", Obs.Json.Int to_undo);
          ("repl_attempted", Obs.Json.Int !repl_attempted);
          ("repl_accepted", Obs.Json.Int (!repl_attempted - !repl_undone));
          ("cut", Obs.Json.Int (Partition_state.cut st));
          ( "terminals",
            Obs.Json.Int
              (Partition_state.terminals st Partition_state.A
              + Partition_state.terminals st Partition_state.B) );
          ("area_a", Obs.Json.Int (Partition_state.area st Partition_state.A));
          ("area_b", Obs.Json.Int (Partition_state.area st Partition_state.B));
          ("improved", Obs.Json.Bool improved);
        ];
      incr pass_idx
    end;
    improved
  in
  (* Each pass runs inside its own span so a tracing sink gets one
     wall-clock span (and GC delta) per F-M pass; without a sink no name
     is even built. *)
  let timed_pass () =
    if observing then
      Obs.span obs ("pass" ^ string_of_int !pass_idx) one_pass
    else one_pass ()
  in
  (* The stop hook is polled only between passes: a pass either completes
     (and rolls back to its best prefix) or never starts, so cancellation
     can not leave the state mid-pass — the score contract ("never
     worsens") survives an abort. With the default hook the polls are
     no-ops and the pass sequence is byte-identical to the unhooked
     engine. *)
  let passes = ref 0 in
  while (not (cfg.should_stop ())) && !passes < cfg.max_passes && timed_pass ()
  do
    incr passes
  done;
  score_of cfg st

let run ?(obs = Obs.noop) cfg st =
  with_workspace (fun ws -> run_in ws ~obs cfg st)

let run_staged ?(obs = Obs.noop) cfg st =
  match cfg.replication with
  | `None -> run ~obs cfg st
  | `Functional _ ->
      with_workspace (fun ws ->
          if Obs.enabled obs then
            Obs.event obs "fm.stage" [ ("stage", Obs.Json.String "plain") ];
          ignore (run_in ws ~obs { cfg with replication = `None } st);
          if Obs.enabled obs then
            Obs.event obs "fm.stage"
              [ ("stage", Obs.Json.String "replication") ];
          run_in ws ~obs cfg st)

let multi_start ~runs ~seed cfg hg =
  let draw = random_flat_state hg in
  let best = ref None and sum = ref 0 in
  for r = 0 to runs - 1 do
    let st = draw (Netlist.Rng.create (seed + (r * 65537))) in
    let _, cut, _ = run_staged cfg st in
    (match !best with
    | Some (c, _) when c <= cut -> ()
    | _ -> best := Some (cut, st));
    sum := !sum + cut
  done;
  (!best, float_of_int !sum /. float_of_int runs)
