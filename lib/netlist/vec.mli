(** Growable arrays.

    OCaml 5.1's standard library has no dynamic array (it appears in 5.2 as
    [Dynarray]); this is the small subset the library needs: amortized O(1)
    push, O(1) random access, and conversion to a plain array. *)

type 'a t

val create : unit -> 'a t
(** A fresh empty vector. *)

val with_capacity : int -> 'a -> 'a t
(** [with_capacity n x] is an empty vector whose first [n] pushes do not
    grow it; [x] fills the unused slots. *)

val length : 'a t -> int

val get : 'a t -> int -> 'a
(** Raises [Invalid_argument] when out of bounds. *)

val set : 'a t -> int -> 'a -> unit
(** Raises [Invalid_argument] when out of bounds. *)

val push : 'a t -> 'a -> int
(** [push v x] appends [x] and returns its index. *)

val iter : ('a -> unit) -> 'a t -> unit

val iteri : (int -> 'a -> unit) -> 'a t -> unit

val fold_left : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc

val to_array : 'a t -> 'a array
(** A fresh array holding the current contents. *)

val take : 'a t -> 'a array
(** [take v] is the current contents as an array, and leaves [v] empty.
    When [v] is full ([length] equals the capacity, as for a
    {!with_capacity} vector given its exact size) the array is [v]'s own
    storage, handed over with no copy; else a copy of its prefix. *)

val of_array : 'a array -> 'a t

val exists : ('a -> bool) -> 'a t -> bool
