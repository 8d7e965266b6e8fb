(** A small reusable domain pool for deterministic fork/join fan-out on
    OCaml 5 domains.

    The engine's multi-start loops are embarrassingly parallel: [n]
    independent trials whose inputs are derived from the trial index alone.
    {!run} evaluates them on [min jobs n] domains and returns the results
    {e indexed by trial}, so a caller that folds over the returned array in
    index order observes exactly the sequence of outcomes the sequential
    loop would have produced — which is what makes byte-identical
    [jobs=1]/[jobs=N] telemetry possible upstream.

    No dependencies beyond the standard library and [obs] (the shared
    clock helper). *)

val run : ?chunk:int -> jobs:int -> int -> (int -> 'a) -> 'a array
(** [run ~jobs n f] is [[| f 0; …; f (n-1) |]].

    With [jobs <= 1] or [n <= 1] the calls happen in the calling domain, in
    index order, with no domain spawned. Otherwise [min jobs n] domains are
    spawned and indices are dispatched in chunks of [chunk] (default 1)
    through an atomic counter; every index runs exactly once, on exactly
    one domain.

    [f] must only share immutable (or index-private) state across calls —
    the pool provides no synchronisation beyond the final join.

    Exception marshalling: if any call raises, the pool still joins every
    domain, then re-raises the exception of the {e smallest} failing index
    (with its backtrace) in the caller — the same exception a sequential
    loop would have surfaced first. Results of other indices are
    discarded. *)

val worker_id : unit -> int
(** Track id of the executing domain: [0] in the calling domain (and in
    any {!run} with [jobs <= 1] or [n <= 1], which runs inline), [1..jobs]
    inside a worker spawned by {!run}. Stable for the whole lifetime of
    the worker, so every trial it executes lands on the same trace track —
    this is the [tid] the engine passes to [Obs.fork ~track]. *)

val jobs_from_env : ?var:string -> unit -> int
(** Parallelism level requested by the environment: the value of [var]
    (default ["FPGAPART_JOBS"]) when set to a positive integer, else [1].
    Malformed values are ignored rather than fatal — an environment
    variable must never break a run. *)
