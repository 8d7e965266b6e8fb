(** Heavy-edge matching coarsening and coarse-graph hierarchies.

    The paper's 1994 flat F-M struggles on the largest circuits; the
    multilevel scheme that later became standard (coarsen by heavy-edge
    matching, partition the small graph, project and refine level by
    level) is implemented here: {!hierarchy} feeds the k-way V-cycle
    driver ([Kway] with [~strategy:(Multilevel _)]) and the bench
    ablation's multilevel bipartition ([Experiments.Ablation]).

    Coarse cells are clusters: their area and demand vector are the
    per-axis sums over their members and their per-output supports are
    widened to all inputs. Clusters are therefore {e opaque} — every
    output depends on every input — which is why functional replication
    is only ever re-derived at the finest levels, where the real
    adjacency vectors live. *)

val coarsen :
  ?max_weight:int array ->
  ?max_nets:int ->
  rng:Netlist.Rng.t ->
  Hypergraph.t ->
  Hypergraph.t * int array
(** One level of heavy-edge matching: each cell merges with its most
    connected unmatched neighbour (connectivity = sum over shared nets of
    [1 / (pins - 1)]). Returns the coarse hypergraph and the fine-to-coarse
    cell map. Every cluster holds one or two cells, so the coarse graph
    has at least half and at most all of the fine graph's cells; callers
    should stop when the reduction stalls.

    Cluster [k] is named ["cl" ^ Int.to_string k]. Its outputs are its
    members' driven nets that leave the cluster (external, or touched by
    another cluster), in ascending member order; its inputs are the
    distinct nets its members read and do not drive, in first-read
    order. Coarse nets
    are numbered by first use in that order, cluster by cluster, and keep
    their fine names. A cluster whose driven nets are all internal still
    exposes one of them as its single output (an internal net touches
    only this cluster, so it cannot be cut): its first driven net, in
    member and pin order.

    Cost: the coarse graph plus O(cells + nets) scratch. The matching
    runs first and knows the cluster count before any of the graph is
    built, which lets {!hierarchy} drop a stalled level unbuilt.

    [max_weight] caps cluster growth {e per demand axis}: a merge is
    refused when any axis of the summed demand vectors (zero-extended to
    the cap's length) would exceed the cap. Because cluster demand vectors
    are themselves per-axis sums, the cap bounds clusters across repeated
    coarsening levels, not just one matching round.

    [max_nets] caps a cluster's {e net surface}: a merge is refused when
    the union of the pair's distinct incident nets exceeds the cap. This
    is the knob that keeps coarse graphs partitionable under tight
    terminal budgets — a part assembled from clusters can never cut fewer
    nets than its clusters' surfaces allow, so once cluster surfaces
    approach the device terminal window, F-M on the coarse graph strands
    outside feasibility however many clusters a part gets. Across levels
    the cap steers matching towards high net-sharing merges (the union
    shrinks only through shared nets), compounding the heavy-edge bias.

    Without either cap (the default) only the pin budget limits
    matching. *)

type hierarchy = {
  coarsest : Hypergraph.t;
  levels : (Hypergraph.t * int array) list;
      (** [(fine, map)] pairs ordered coarsest-side first: the head pair's
          [map] sends cells of its [fine] graph into clusters of
          [coarsest], each later pair refines the previous one, and the
          last pair's [fine] is the original input graph. Empty when the
          input was already at or below the [coarsest] threshold. *)
}

val hierarchy :
  ?coarsest:int ->
  ?max_weight:int array ->
  ?max_nets:int ->
  ?wrap:
    (int ->
    (unit -> (Hypergraph.t * int array) option) ->
    (Hypergraph.t * int array) option) ->
  ?should_stop:(unit -> bool) ->
  rng:Netlist.Rng.t ->
  Hypergraph.t ->
  hierarchy
(** Repeated {!coarsen} until the graph has at most [coarsest] cells
    (default 150), 12 levels exist, or matching stalls (it finds at least
    9/10 of the fine cell count in clusters); neither limit is a
    parameter. A level is matched first and contracted only if it did
    not stall, so a stalled level costs its matching scratch and builds
    no graph; the RNG draws are those of {!coarsen}, all made
    by the matching. [wrap] is called around each level, the stalled one
    included, with the 0-based level index; the step answers [None] when
    the level stalled — the k-way driver passes an [Obs.span] so per-level
    [coarsenN] timings land in the trace.

    [should_stop] (default: never) is polled before each level; once it
    answers [true] no further level is built and the hierarchy built so
    far is returned, so a cancelled caller waits for at most one level.
    The caller decides what a stopped hierarchy means: [Kway]'s multilevel
    run polls its own flag again and returns [Error "cancelled"]. *)

val num_levels : hierarchy -> int

val project_labels : map:int array -> int array -> int array
(** [project_labels ~map coarse_labels] pulls a per-cluster labelling down
    one level: fine cell [c] gets [coarse_labels.(map.(c))]. Projection
    preserves per-label areas, demand vectors and cut exactly — coarsening
    drops only nets internal to one cluster, which are internal to one
    label by construction. *)
