(** Gain buckets — the Fiduccia–Mattheyses selection structure.

    A doubly-linked list per gain value plus a moving maximum pointer gives
    O(1) insert/remove/update and near-O(1) extraction of the best
    candidate. Items are dense integers (cell ids). Gains outside the
    declared range are clamped (safe because selection only needs the
    ordering at the top). *)

type t

val create : num_items:int -> max_gain:int -> t
(** Gains live in [\[-max_gain, +max_gain\]]. *)

val insert : t -> int -> int -> unit
(** [insert t item gain]. Raises [Invalid_argument] if present. *)

val remove : t -> int -> unit
(** No-op when absent. *)

val update : t -> int -> int -> unit
(** Change an item's gain (inserts when absent). When the clamped gain is
    unchanged the item keeps its position within its slot (no unlink /
    relink), so an update that does not move an item does not refresh its
    tie-break recency either — see {!find_best}. *)

val mem : t -> int -> bool
val gain : t -> int -> int
(** Raises [Not_found] when absent. *)

val cardinal : t -> int

val find_best : t -> (int -> bool) -> int
(** Highest-gain item satisfying the predicate, or [-1] when none does
    (items are non-negative, so no [option] is allocated per call); scans
    downward, so a
    prefix of rejections at the top costs O(rejections). Ties broken by
    most-recently-{e moved-into-the-slot} (LIFO within a gain level, the
    classic F-M choice; an {!update} that leaves the clamped gain
    unchanged does not count as moving). *)

val clear : t -> unit
(** Empty the bucket. Costs O(items + gain range), the active ones only
    after a {!reset} to a smaller range. *)

val reset : t -> num_items:int -> max_gain:int -> unit
(** [reset t ~num_items ~max_gain] empties [t] and makes it equal to a
    fresh [create ~num_items ~max_gain]: gains clamp to the new range, so
    tie order never depends on an earlier, wider one. The arrays grow
    only when the new range or item count exceeds every earlier one. *)
