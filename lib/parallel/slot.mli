(** One value per domain, kept between uses: the home of the engine's
    graph-sized buffers (F-M's workspace, the flat root of a job, the
    split driver's and the pair refiner's kits), which a domain running
    many jobs one after another then fills once.

    A use takes the value out of the executing domain's slot and puts it
    back when done. The take is an atomic exchange, so a second use on
    the same domain meanwhile (another systhread, or a use nested in the
    first) finds the slot empty and works in a fresh value of its own;
    two users never share one. A use that raises does not put its value
    back, so a value left half-written by an exception is never seen
    again. A domain's values die with it: the domains {!Pool.run} spawns
    start with empty slots. *)

type 'a t

val make : (unit -> 'a) -> 'a t
(** A slot whose empty state is filled by [fresh ()]. Call it once, at
    module initialisation: each slot is a domain-local key. *)

val use : 'a t -> ('a -> 'b) -> 'b
(** [use t f] is [f v] with [v] the executing domain's value (or a fresh
    one when the slot is empty), put back after [f] returns. [f] must
    leave [v] in a state the next user may take, and must not let [v]
    escape: the next use on the domain writes it. *)
