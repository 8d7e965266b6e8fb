(** Fixed-width bit vectors packed in a native [int].

    The paper's adjacency vectors (which input pins an output functionally
    depends on) are at most a handful of bits after XC3000 mapping — a CLB
    has five input pins — so a native int (62 usable bits) is ample. All
    operations take the vector width explicitly; bits at positions [>=
    width] are always zero. *)

type t = int

val max_width : int
(** 62 on a 64-bit platform. *)

val empty : t

val full : int -> t
(** [full w] has bits [0..w-1] set. Raises [Invalid_argument] if [w < 0] or
    [w > max_width]. *)

val singleton : int -> t
val mem : int -> t -> bool
val add : int -> t -> t
val remove : int -> t -> t
val union : t -> t -> t
val inter : t -> t -> t
val diff : t -> t -> t
val complement : int -> t -> t
(** [complement w v] flips [v] within width [w] — the paper's
    [Ā] operation on adjacency vectors. *)

val norm : t -> int
(** Population count — the paper's [|A|] norm. *)

val compress : t -> t -> t
(** [compress keep v] — the bits of [v] at the positions [keep] holds,
    renumbered densely: the [r]-th set position of [keep] becomes bit
    [r]. It renames a copy's pins when the copy keeps only the pins in
    [keep]. Bits of [v] outside [keep] are dropped. *)

val expand : t -> t -> t
(** [expand keep v] — the inverse of {!compress} on [keep]'s positions:
    bit [r] of [v] becomes the [r]-th set position of [keep]. *)

val is_empty : t -> bool
val subset : t -> t -> bool
val equal : t -> t -> bool

val iter : (int -> unit) -> t -> unit
(** Iterate over set bit positions, ascending. *)

val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a
val to_list : t -> int list
val of_list : int list -> t
val pp : width:int -> Format.formatter -> t -> unit
(** Renders like the paper's column vectors, LSB first: [\[1 0 1\]]. *)
