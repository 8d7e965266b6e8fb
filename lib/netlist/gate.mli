(** Gate-level primitives.

    The gate alphabet matches the ISCAS [.bench] netlist format (the format
    of the benchmark suites used in the paper): simple logic gates of
    arbitrary arity plus D flip-flops. *)

type kind =
  | Input        (** primary input; no fanins *)
  | And
  | Nand
  | Or
  | Nor
  | Xor
  | Xnor
  | Not          (** exactly one fanin *)
  | Buf          (** exactly one fanin *)
  | Dff          (** D flip-flop; one fanin (D), output is Q *)
  | Const0       (** constant 0; no fanins *)
  | Const1       (** constant 1; no fanins *)

val equal : kind -> kind -> bool

val to_string : kind -> string
(** Upper-case [.bench] spelling, e.g. ["NAND"]. *)

val of_string : string -> kind option
(** Case-insensitive inverse of {!to_string}; also accepts [INV] for
    [Not] and [BUFF] for [Buf]. *)

val of_substring : string -> pos:int -> len:int -> kind option
(** [of_substring s ~pos ~len] is [of_string (String.sub s pos len)]
    without the copy: it allocates nothing. Raises [Invalid_argument] on
    an invalid range. *)

val is_combinational : kind -> bool
(** True for every kind except [Input] and [Dff]. *)

val arity_ok : kind -> int -> bool
(** [arity_ok k n] tells whether a gate of kind [k] may have [n] fanins. *)

val eval : kind -> bool array -> bool
(** [eval k ins] evaluates a combinational gate on its fanin values. Raises
    [Invalid_argument] for [Input] and [Dff] (which have no combinational
    semantics) or when the arity is illegal. *)

val pp : Format.formatter -> kind -> unit
