(** Fiduccia–Mattheyses bipartitioning, with optional functional
    replication (Section III.D of the paper).

    The engine runs F-M passes over a {!Partition_state}: each pass
    tentatively applies the best legal operation per cell at most once
    (operations are mask changes: moves, output migrations,
    un-replications — see {!Gain.best_mask_change}), then rolls back to the
    best prefix. Gains are exact deltas from {!Partition_state.eval}; after
    each applied operation only the cells sharing a net with the moved cell
    are re-scored, preserving the F-M cost profile (the paper reports a
    34% CPU surcharge for replication; this implementation is in the same
    regime).

    With [replication = `None] and [objective = Cut] this is the classic
    min-cut F-M of the paper's first experiment; [`Functional T] enables
    replication for cells with [psi >= T]. *)

type objective = Cut | Terminals

val objective_value : objective -> Partition_state.t -> int
(** [Cut]: nets spanning both sides. [Terminals]: total IOBs consumed by
    the two sides ([terminals A + terminals B]), the k-way driver's view of
    eq. (2). *)

type score = int * int * int
(** [(penalty, objective, preference)]; lexicographically smaller is
    better. A prefix with penalty 0 satisfies the caller's feasibility
    constraints; [preference] breaks ties between equally good prefixes
    (the device-window config uses it to prefer fuller devices, which
    lowers total cost). *)

(** The engine keeps every unlocked cell's best operation cached (gain
    buckets) and, after each applied move, refreshes only the cells on
    nets reported state-changed by {!Partition_state.apply} — the
    criticality-filtered incremental rescoring that makes per-move cost
    proportional to the move's actual blast radius instead of the moved
    cell's whole neighbourhood. Epoch stamps deduplicate the per-move
    dirty set; candidate evaluation runs through
    {!Gain.iter_masks} + {!Partition_state.eval_into} into preallocated
    scratch, so the steady-state loop does not allocate per candidate. *)

type config = {
  objective : objective;
  replication : [ `None | `Functional of int ];
  max_passes : int;
  area_ok : int -> int -> bool;
      (** hard legality of intermediate states: [area_ok area_a area_b] *)
  score : Partition_state.t -> score;
      (** prefix quality; the pass rolls back to the best-scoring prefix *)
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
          changes (roughly the pre-filtering engine's). Also forced
          process-wide by the environment variable [FPGAPART_FM_ORACLE=1]. *)
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
(** @deprecated Constructing this record literally is deprecated — new
    knobs would break literal builders. Use {!Config.make} or one of the
    scenario builders ({!balance_config}, {!device_config},
    {!two_device_config}), which default everything defaultable. The
    record stays exposed for field access and functional update. *)

(** Labelled constructor for {!config}. *)
module Config : sig
  type t = config

  val make :
    ?objective:objective ->
    ?replication:[ `None | `Functional of int ] ->
    ?max_passes:int ->
    ?should_stop:(unit -> bool) ->
    ?oracle:bool ->
    ?active:(int -> bool) ->
    area_ok:(int -> int -> bool) ->
    score:(Partition_state.t -> score) ->
    unit ->
    t
  (** Defaults: [Cut], [`None], 12 passes, never stop, no oracle, every
      cell active. [area_ok] and [score] have no meaningful
      default — pick a scenario builder if you don't want to write them.

      Raises [Invalid_argument] on a non-positive [max_passes]: a budget
      of zero passes silently degrades every caller to "return the initial
      state", which is never what was meant. *)
end

val balance_config :
  ?objective:objective ->
  ?replication:[ `None | `Functional of int ] ->
  ?max_passes:int ->
  ?slack:float ->
  total_area:int ->
  unit ->
  config
(** The paper's first experiment: minimise [objective] subject to
    [max (area A) (area B) <= ceil ((1 + slack) * total_area / 2)]
    (slack defaults to 0.10; replication can grow the total, so exact
    halves are not attainable in general). *)

type device_bounds = private {
  min_clbs : int;
  max_clbs : int;
  max_terminals : int;
  res_max : int array;
      (** per-axis caps over the demand axes ([Hypergraph.demand_arity]
          long, axis 0 ignored — the CLB window already covers it), or
          [[||]] for "primary axis only" (the paper's scalar model).
          Violations are charged to the penalty leg of the score exactly
          like the terminal budget, never to [area_ok], so the hot loop's
          legality check stays scalar. *)
}
(** Built only by {!bounds}, which validates it; fields stay readable. *)

val bounds :
  ?res_max:int array ->
  min_clbs:int ->
  max_clbs:int ->
  max_terminals:int ->
  unit ->
  device_bounds
(** Labelled constructor for {!device_bounds}; [res_max] defaults to
    [[||]]. Raises [Invalid_argument] on a negative or inverted CLB
    window, a negative terminal budget, or a [res_max] that is neither
    empty nor [Hypergraph.demand_arity] long. *)

val device_config :
  ?objective:objective ->
  ?replication:[ `None | `Functional of int ] ->
  ?max_passes:int ->
  ?should_stop:(unit -> bool) ->
  bounds:device_bounds ->
  unit ->
  config
(** k-way inner bipartition: side [A] must fit a device window
    ([min_clbs <= area A <= max_clbs], [terminals A <= max_terminals]);
    penalty measures the violation, so passes hill-climb into
    feasibility. *)

val two_device_config :
  ?objective:objective ->
  ?replication:[ `None | `Functional of int ] ->
  ?max_passes:int ->
  ?should_stop:(unit -> bool) ->
  ?active:(int -> bool) ->
  bounds_a:device_bounds ->
  bounds_b:device_bounds ->
  unit ->
  config
(** Pairwise refinement between two already-assigned devices: both sides
    must stay inside their device windows. Defaults the objective to
    [Terminals] — with the devices fixed, total IOB usage is exactly what
    eq. (2) charges for the pair. [active] restricts the movable cells
    (see the {!config} field); the warm-start refinement passes the dirty
    predicate here. *)

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
    tracing sink records one wall-clock span (with GC delta) per F-M pass;
    and three histograms accumulate: ["fm.gain"] (the gain of every
    applied operation), ["fm.scan_len"] (candidates inspected per bucket
    scan before one passed the legality test) and ["fm.moves_per_sec"]
    (per non-empty pass, applied ops over the pass's wall time — a
    wall-derived quantity, masked by {!Obs.Scrub.null_mask} like
    the [_secs] timers). The counter ["fm.rescored_cells"] accumulates the
    number of best-op recomputations triggered by applied moves (pass
    initialisation excluded) — the direct measure of what incremental
    rescoring saves, and deterministic for a given seed. *)

val run_staged : ?obs:Obs.t -> config -> Partition_state.t -> score
(** Replication as the paper deploys it: an {e extension} of the
    traditional F-M heuristic. First converge with plain moves
    ([replication = `None]), then continue with the configured replication
    operations from that solution. Since passes never worsen the score,
    the staged result is never worse than plain F-M alone. Equivalent to
    {!run} when the config has no replication. Both stages share one
    workspace (bucket, per-cell op registers, flags, epoch stamps and
    trail), reset to its fresh state at the start of each stage, so the
    result equals a plain {!run} followed by a replication {!run} while
    the per-cell arrays are allocated once; the workspace lives inside
    the call, so concurrent calls on different domains share nothing.
    With a collecting [obs], a ["fm.stage"] event separates the plain
    and replication stages. *)

val random_state : Netlist.Rng.t -> Hypergraph.t -> Partition_state.t
(** Fresh state with a uniformly random half/half assignment (by cell
    count), the multi-start initialisation of the paper's 20-run
    experiments. *)
