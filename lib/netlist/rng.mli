(** Deterministic pseudo-random number generator (SplitMix64).

    Every randomized component of the library (circuit generators, partition
    multi-starts, property tests that need auxiliary randomness) draws from
    this generator so that experiments are reproducible bit-for-bit from a
    seed, independently of the OCaml runtime's [Random] state. *)

type t
(** Mutable generator state, held unboxed: {!int}, {!bool} and {!chance}
    allocate nothing per draw. *)

val create : int -> t
(** [create seed] returns a fresh generator. Equal seeds yield equal
    streams. *)

val copy : t -> t
(** [copy t] is an independent generator that will produce the same future
    stream as [t]. *)

val split : t -> t
(** [split t] derives a statistically independent generator from [t],
    advancing [t]. Useful for giving sub-components their own streams. *)

val next_int64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. Raises [Invalid_argument] if
    [bound <= 0]. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [\[lo, hi\]] inclusive. Raises
    [Invalid_argument] if [hi < lo]. *)

val bool : t -> bool
(** Uniform coin flip. *)

val float : t -> float -> float
(** [float t x] is uniform in [\[0, x)]. *)

val chance : t -> float -> bool
(** [chance t p] is [float t 1.0 < p]: true with probability [p], drawing
    the same stream as {!float}. It allocates nothing. *)

val pick : t -> 'a array -> 'a
(** [pick t arr] is a uniformly random element. Raises [Invalid_argument] on
    an empty array. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val sample : t -> int -> int -> int array
(** [sample t n bound] draws [n] distinct integers from [\[0, bound)] in
    random order. Raises [Invalid_argument] unless [0 <= n <= bound]. *)
