(** Minimal JSON document values with a deterministic emitter.

    The observability layer needs a stable on-disk representation (two runs
    with the same seed must serialise byte-identically, elapsed-time fields
    aside), so the emitter is hand-rolled: object fields keep their
    construction order, floats render through one fixed format, and there
    are no dependencies beyond the standard library. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Pretty-printed (two-space indent) UTF-8 JSON, ending without a
    newline. Strings are escaped per RFC 8259; non-finite floats render as
    [null]. *)

val to_compact_string : t -> string
(** Single-line rendering (no whitespace, no interior newlines) with the
    same escaping and float format as {!to_string}. This is the JSON-lines
    form: one {!Obs.Log} record per line stays greppable and parseable. *)

val pp : Format.formatter -> t -> unit
(** Same rendering as {!to_string}. *)

val write_file : path:string -> t -> unit
(** {!to_string} plus a trailing newline, written atomically enough for our
    purposes (single [output_string]). *)

val of_string : string -> (t, string) result
(** Parse one RFC 8259 JSON document (the whole string must be consumed,
    whitespace aside). Numbers without a fraction or exponent that fit an
    OCaml [int] parse as [Int], everything else numeric as [Float]; object
    fields keep their textual order, so [of_string (to_string j) = Ok j]
    for any [j] free of non-finite floats and duplicate keys. Errors carry
    the byte offset of the failure. The service protocol
    ({!Service.Codec}) depends on this parser — it is the only JSON reader
    in the system. *)

(** {1 Accessors} — small conveniences for tests and schema checks. *)

val member : string -> t -> t option
(** Field lookup in an [Obj]; [None] on missing fields or non-objects. *)

val to_int : t -> int option
val to_float : t -> float option
val to_bool : t -> bool option
val to_str : t -> string option

(** {1 Decoding} — typed field reads with the wire protocol's error
    strings. *)

val field : string -> (t -> 'a option) -> t -> ('a, string) result
(** [field name conv json]: the converted field; [Error "missing or
    ill-typed field \"name\""] when it is absent or [conv] rejects it. *)

val opt_field :
  string -> (t -> 'a option) -> default:'a -> t -> ('a, string) result
(** As {!field}, but an absent field is [Ok default]; a present one that
    [conv] rejects is [Error "ill-typed field \"name\""]. *)
