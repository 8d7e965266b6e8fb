(** Incremental circuit edits (engineering change orders).

    A delta is an ordered list of edit operations against a base
    {!Circuit.t}: add a cell, remove a cell, rewire one fanin pin, or
    change a signal's primary-output mark. {!apply} validates the edits
    and builds the edited circuit with {!Elaborate.canonical}, the form
    the service layer's content digest hashes, so applying the empty
    delta to an already-canonical circuit is the identity, and two
    textual permutations of the same edit sequence produce
    byte-identical canonical circuits.

    Errors are typed and carry the offending names, mirroring the parser's
    line-numbered diagnostics: a resubmit client gets "removing [g12]
    breaks [g47]" rather than a generic failure. *)

type op =
  | Add_cell of { name : string; kind : Gate.kind; fanins : string list }
      (** Add a gate (or input / flip-flop) defining signal [name],
          reading the named signals in pin order. Fanins may reference
          signals added later in the same delta (and a flip-flop's [D]
          may read its own cone); references resolve after all ops. *)
  | Remove_cell of string
      (** Delete the cell defining this signal. Every surviving cell that
          still reads the signal after the whole delta is applied is an
          error ({!Still_referenced}). Removing a primary output unmarks
          it. *)
  | Rewire of { cell : string; pin : int; net : string }
      (** Point fanin pin [pin] (0-based) of [cell] at signal [net]. *)
  | Set_output of { net : string; output : bool }
      (** Mark or unmark a signal as a primary output. *)

type t = op list
(** Ops apply in list order; validation of cross-references happens after
    the last op, so order only matters for ops touching the same cell. *)

type error =
  | Duplicate_cell of string
      (** {!Add_cell} of a signal name that already exists. *)
  | Unknown_cell of string
      (** {!Remove_cell}, {!Rewire} or {!Set_output} naming a signal that
          does not exist (or was already removed). *)
  | Unknown_net of { cell : string; net : string }
      (** After all ops, [cell] reads signal [net] which never existed. *)
  | Still_referenced of { removed : string; by : string }
      (** After all ops, the surviving cell [by] still reads the removed
          signal [removed]. *)
  | Bad_pin of { cell : string; pin : int }
      (** {!Rewire} pin index out of the cell's fanin range. *)
  | Invalid of string
      (** Structural rejection by the circuit builder: bad arity, a
          combinational cycle introduced by the edits, … *)

val error_to_string : error -> string

val is_empty : t -> bool

val apply : Circuit.t -> t -> (Circuit.t, error) result
(** Apply the delta and build the result with {!Elaborate.canonical}:
    it is node for node its own canonical form. The base circuit is not
    modified. A cycle the edits close is [Invalid "combinational cycle
    through [x]"]. The result satisfies every {!Circuit.Builder}
    invariant or the apply fails — no partially edited circuit escapes. *)

val random : seed:int -> frac:float -> Circuit.t -> t
(** A seeded pseudo-random delta editing roughly [frac] of the base
    circuit's nodes (at least one op), built so that {!apply} always
    succeeds: inserted gates read only signals topologically no later
    than their consumer, rewires never create combinational cycles, and
    removals only target signals nothing reads any more. The op mix
    imitates a typical ECO: gate insertions on existing pins, pin
    rewires, occasional new observation points and dead-cell removals. *)
