(** Per-tenant weighted fair queue — the job queue of the service front
    end ({!Front}), shared by the daemon and the fleet.

    Each tenant owns a bounded priority queue (higher [priority] first,
    FIFO within a priority). Across tenants, {!pop} serves in weighted
    round-robin order: when a tenant's turn comes it may dequeue up to
    [weight] jobs before the turn rotates — the unit-cost special case
    of deficit round robin, where every job has size 1 and the quantum
    is the weight. A tenant that drains leaves the rotation and rejoins
    at the back on its next {!push}, so idle tenants cost nothing and a
    newly active tenant cannot jump an in-progress turn.

    Fairness statement: over any interval in which tenants A and B are
    both continuously backlogged, the number of jobs served from A and
    from B differ from the ratio [weight A : weight B] by at most one
    turn's quantum — regardless of how many jobs either tenant has
    queued. Backpressure is per tenant: one tenant hitting its [cap]
    refuses only that tenant's submissions.

    Not thread-safe; the front end calls it under its state mutex. *)

type 'a t

val valid_tenant : string -> bool
(** A tenant id is 1..64 characters; {!Protocol} refuses any other in a
    submission envelope. *)

val check_weights : (string * int) list -> (unit, string) result
(** Pinned weights are usable when every tenant is {!valid_tenant}, is
    weighted once and weighs at least 1. A weight for a name no envelope
    can carry, or a second weight for one tenant, would be dropped
    silently, so both are refused. *)

val create : ?weights:(string * int) list -> cap:int -> unit -> 'a t
(** [cap] bounds each tenant's queue (not the total). [weights] pins
    per-tenant weights; unlisted tenants weigh 1. Raises
    [Invalid_argument] on a non-positive cap or on weights that
    {!check_weights} refuses. *)

val push :
  'a t -> tenant:string -> priority:int -> 'a -> (unit, [ `Tenant_full of int ]) result
(** Enqueue for a tenant, creating its queue on first use.
    [`Tenant_full depth] when the tenant is at its cap. *)

val pop : 'a t -> 'a option
(** Next job in weighted round-robin order; [None] when empty. *)

val length : 'a t -> int
(** Total queued jobs across all tenants. *)

val depth : 'a t -> string -> int
(** Queued jobs for one tenant (0 for an unknown tenant). *)

val cap : 'a t -> int

val weight : 'a t -> string -> int
(** The weight a tenant has (or would get). *)

val tenants : 'a t -> (string * int) list
(** [(tenant, depth)] for every tenant seen so far, sorted by name —
    deterministic for fleet-stats documents. *)

val position : 'a t -> tenant:string -> ('a -> bool) -> int option
(** 0-based position of the first matching job {e within its tenant's
    queue} (cross-tenant order is a property of the rotation, not of the
    queue state). [None] when no queued job matches. *)

val drain : 'a t -> 'a list
(** Remove and return everything, in {!pop} order. *)
