(** Fiduccia–Mattheyses bipartitioning, with optional functional
    replication (Section III.D of the paper).

    The engine runs F-M passes over a {!Partition_state}: each pass
    tentatively applies the best legal operation per cell at most once
    (operations are mask changes: moves, output migrations,
    un-replications — see {!iter_masks}), then rolls back to the
    best prefix. Gains are exact deltas from {!Partition_state.eval_into}
    (the paper's closed forms, eqs. 7–11, live in the test suite as an
    oracle for them); after each applied operation only the cells sharing
    a net with the moved cell are re-scored, preserving the F-M cost
    profile (the paper reports a 34% CPU surcharge for replication; this
    implementation is in the same regime).

    With [replication = `None] and [objective = `Cut] this is the classic
    min-cut F-M of the paper's first experiment; [`Functional T] enables
    replication for cells with [psi >= T].

    The k-way driver's bipartitions keep a side inside a device: the
    device's {!Fpga.Objective.window} (its CLB window, terminal budget and
    the secondary axes the objective constrains) is all F-M reads of it,
    through one config, {!window_config}, and one penalty. *)

type objective = Fpga.Objective.fm_objective

val objective_value : objective -> Partition_state.t -> int
(** [`Cut]: nets spanning both sides. [`Terminals]: total IOBs consumed by
    the two sides ([terminals A + terminals B]), the k-way driver's view of
    eq. (2). *)

type score = int * int * int
(** [(penalty, objective, preference)]; lexicographically smaller is
    better. A prefix with penalty 0 satisfies the caller's feasibility
    constraints; [preference] breaks ties between equally good prefixes
    (the window config uses it to prefer fuller devices, which lowers
    total cost). *)

(** The engine keeps every unlocked cell's best operation cached (gain
    buckets) and, after each applied move, refreshes only the cells on
    nets reported state-changed by {!Partition_state.apply} — the
    criticality-filtered incremental rescoring that makes per-move cost
    proportional to the move's actual blast radius instead of the moved
    cell's whole neighbourhood. Epoch stamps deduplicate the per-move
    dirty set; candidate evaluation runs through
    {!iter_masks} + {!Partition_state.eval_into} into preallocated
    scratch, so the steady-state loop does not allocate per candidate. *)

val iter_masks :
  Partition_state.t ->
  replication:[ `None | `Functional of int ] ->
  int ->
  f:(Bitvec.t -> unit) ->
  unit
(** F-M's candidate source: every mask the engine scores for a cell
    under the replication mode. That is the whole-cell move; single-output
    migrations when the cell may replicate (psi at least the threshold of
    [`Functional t], more than one output) or is already replicated; and
    full un-replication to either side when replicated. Every mask is
    produced {e exactly once}, the current mask never, in a fixed order
    the engine's first-wins tie-break relies on: the complement first,
    then per-output flips in ascending output order, then un-replication
    to empty and then to full. Allocates nothing beyond the callback's
    own work. *)

type bounds = private
  | Halves of { cap : int }
      (** The paper's bipartition experiment: neither side may exceed
          [cap] CLBs; the penalty is the larger side's overflow of it and
          there is no preference. *)
  | Split of Fpga.Objective.window
      (** The k-way split: side [A] must fit the window, side [B] is the
          unconstrained remainder; the preference is a smaller side [B]
          (a fuller split-off device). *)
  | Pair of Fpga.Objective.window * Fpga.Objective.window
      (** Pairwise refinement between two assigned devices: each side
          must fit its window; the preference is less total area
          (shedding replicas at an equal objective). *)
(** The bounds a bipartition keeps, as data. One legality test and one
    scoring function ({!score_of}) read them. Under a window the penalty
    is the side's distance from it: CLBs outside
    [[lo.(clb), hi.(clb)]], terminals over [max_iobs], and demand over
    [hi] on each secondary axis the window constrains. Passes hill-climb
    into feasibility; the legality test only stops a windowed side from
    growing past [hi.(clb)] by more than a quarter. *)

type config = private {
  objective : objective;
  replication : [ `None | `Functional of int ];
  max_passes : int;
  bounds : bounds;
      (** hard legality of intermediate states and prefix quality: the
          pass rolls back to the best-scoring prefix *)
  should_stop : unit -> bool;
      (** cooperative-cancellation hook, polled between passes (never
          mid-pass, so an abort still leaves the state at a best prefix
          and the "score never worsens" contract holds). Defaults to
          [fun () -> false]; the default never changes behaviour. The
          service daemon points it at a cancel flag / deadline check. *)
  oracle : bool;
      (** Debugging mode: after every applied move, recompute from scratch
          the best op of every unlocked cell sharing a net with the moved
          cell (the complete set whose gains can change — see
          {!Partition_state.iter_changed_nets}) and compare with the
          incrementally maintained op, failing loudly on any mismatch.
          Decisions are byte-identical to a non-oracle run; only the cost
          changes (roughly the pre-filtering engine's). Set by
          {!with_oracle}; also forced process-wide by the environment
          variable [FPGAPART_FM_ORACLE=1]. *)
  active : int -> bool;
      (** Move eligibility per cell. Cells for which it returns [false]
          are pre-locked at the start of every pass: never rescored, never
          bucketed, never moved — they participate only as fixed context.
          The warm-start path points this at the edit's dirty-cell set so
          an incremental pass costs O(blast radius), not O(cells). The
          default accepts every cell and is provably inert: the pre-lock
          branch is never taken and the pass sequence is byte-identical to
          the unrestricted engine (the oracle identity cases in
          [test/test_contracts.ml] enforce exactly this). *)
}
(** Private: every value comes from a scenario builder
    ({!balance_config}, {!window_config}), so it has passed their
    checks. Both raise [Invalid_argument] on a non-positive
    [max_passes]: a budget of zero passes silently degrades every caller
    to "return the initial state", which is never what was meant. They
    raise it on a negative replication threshold too. *)

val with_oracle : config -> config
(** The same config in oracle mode. *)

val score_of : config -> Partition_state.t -> score
(** The config's score of the state, as a tuple. *)

val balance_config :
  ?objective:objective ->
  ?replication:[ `None | `Functional of int ] ->
  ?max_passes:int ->
  ?slack:float ->
  total_area:int ->
  unit ->
  config
(** The paper's first experiment ({!Halves}): minimise [objective]
    subject to [max (area A) (area B) <= ceil ((1 + slack) * total_area /
    2)]
    (slack defaults to 0.10; replication can grow the total, so exact
    halves are not attainable in general). *)

val window_config :
  ?objective:objective ->
  ?replication:[ `None | `Functional of int ] ->
  ?max_passes:int ->
  ?should_stop:(unit -> bool) ->
  ?active:(int -> bool) ->
  a:Fpga.Objective.window ->
  ?b:Fpga.Objective.window ->
  unit ->
  config
(** F-M under device windows ({!Fpga.Objective.window}): with [a] alone
    the k-way split ({!Split}), with [b] too the pair refiner ({!Pair}).

    [active] restricts the movable cells (see the {!config} field); the
    warm-start refinement passes the dirty predicate here. Raises
    [Invalid_argument] on an empty CLB window. *)

val run : ?obs:Obs.t -> config -> Partition_state.t -> score
(** Improve the state in place until a pass brings no improvement (or
    [max_passes]); returns the final score. The state is left at the best
    prefix found. Each pass rolls back to its best prefix, so the score
    never worsens.

    When [obs] is a collecting sink (default {!Obs.noop}, which records
    nothing and costs nothing), every pass — including the final
    non-improving one — emits one ["fm.pass"] event with fields [pass]
    (0-based index), [applied] (ops tentatively applied, at most one per
    cell so ≤ the cell count), [rolled_back] (ops undone, ≤ [applied]),
    [repl_attempted]/[repl_accepted] (replication-family ops applied /
    surviving rollback), the post-rollback [cut], [terminals], [area_a],
    [area_b] trajectory, and [improved]. Counters [fm.passes],
    [fm.applied_ops] and [fm.rolled_back_ops] accumulate across passes.

    Each pass additionally runs inside a span named ["passN"], so a
    tracing sink records one wall-clock span (with GC delta) per F-M pass:
    that span is the pass's duration, and F-M reads no clock itself. Two
    histograms accumulate: ["fm.gain"] (the gain of every applied
    operation) and ["fm.scan_len"] (candidates inspected per bucket scan
    before one passed the legality test). The counter
    ["fm.rescored_cells"] accumulates the number of best-op recomputations
    triggered by applied moves (pass initialisation excluded) — the direct
    measure of what incremental rescoring saves, and deterministic for a
    given seed. *)

val run_staged : ?obs:Obs.t -> config -> Partition_state.t -> score
(** Replication as the paper deploys it: an {e extension} of the
    traditional F-M heuristic. First converge with plain moves
    ([replication = `None]), then continue with the configured replication
    operations from that solution. Since passes never worsen the score,
    the staged result is never worse than plain F-M alone. Equivalent to
    {!run} when the config has no replication. Both stages share one
    workspace (bucket, per-cell op registers, flags, epoch stamps and
    trail), reset to its fresh state at the start of each stage, so the
    result equals a plain {!run} followed by a replication {!run}.

    Every {!run} and [run_staged] takes its workspace from the executing
    domain's slot ({!Parallel.Slot}) and returns it afterwards, so runs
    one after another on a domain reuse one set of per-cell arrays, grown
    only when a graph is larger than every earlier one. A run that finds
    the slot empty (another systhread of the domain is mid-run) works in
    a fresh workspace; concurrent runs share nothing, and no run can tell
    whether its workspace was fresh or reused.
    With a collecting [obs], a ["fm.stage"] event separates the plain
    and replication stages. *)

val random_state : Netlist.Rng.t -> Hypergraph.t -> Partition_state.t
(** Fresh state with a uniformly random half/half assignment (by cell
    count), the multi-start initialisation of the paper's 20-run
    experiments, over a flat form of the hypergraph built here
    ({!Hypergraph.Flat.of_hypergraph}) and owned by the state: it is not
    a domain's root kit, since the state outlives the call. *)

val multi_start :
  runs:int ->
  seed:int ->
  config ->
  Hypergraph.t ->
  (int * Partition_state.t) option * float
(** The paper's equal-halves campaign: [runs] {!run_staged} runs, run [r]
    from {!random_state} seeded [seed + r * 65537], all over one flat
    form of the hypergraph, built here as in {!random_state}. Returns
    the best cut with the first state reaching it, and the mean cut. *)
