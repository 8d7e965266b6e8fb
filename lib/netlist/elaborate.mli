(** Name resolution: the one path from named declarations to a
    {!Circuit.t}, shared by the three parsers, {!Delta.apply} and the
    canonical form the service digest hashes.

    One depth-first search decides the node numbering everything
    downstream sees: declaring statements resolve in the caller's order,
    each combinational one after its fanins (left to right); flip-flops
    enter as placeholders (their D may read their own cone) and get their
    D pins in a second pass, in the same order; outputs are marked last,
    in the caller's order. Signals are dense int ids, which each front
    end maps its names to its own way. *)

type error =
  | Duplicate of { signal : int; line : int; first : int }
  | Undefined of { signal : int; line : int }
      (** read by the statement on [line], declared nowhere *)
  | Cycle of { signal : int; line : int }
      (** reached again while the statement on [line] resolves its
          fanins, before its own fanins were resolved *)
  | Dff_arity of { signal : int; line : int }
  | Undefined_output of { signal : int; line : int }
  | Builder of string  (** {!Circuit.Builder}'s message (a bad arity) *)

val error_to_string : (int -> string) -> error -> string
(** The [.bench] and BLIF rendering, given the signal names: ["line N:
    undefined signal: x"] and so on; a [Builder] message as it is. *)

type source = {
  statements : int;  (** statements [0 .. statements - 1], in order *)
  signal : int -> int;  (** the signal statement [i] declares or marks *)
  output : int -> bool;  (** [i] marks its signal as a primary output *)
  kind : int -> Gate.kind;
  line : int -> int;
  arity : int -> int;
  fanin : int -> int -> int;  (** [fanin i j]: the signal on pin [j] *)
  signals : int;  (** signal ids are [0 .. signals - 1] *)
  name : int -> string;
}

val run :
  ?build:((int -> int) -> int -> int) ->
  Circuit.Builder.t ->
  source ->
  (Circuit.t, error) result
(** Resolve the statements into the builder and finish it. A statement
    that is neither [Input] nor [Dff] adds a gate of its kind; given
    [build], [build resolve i] adds its nodes instead (a BLIF cover, a
    Verilog expression), calling [resolve] on each signal it reads, and
    returns the node carrying its signal.

    The error is the first met: a [Duplicate], in statement order; an
    [Undefined] fanin, a [Cycle] or a [Builder] rejection, in resolution
    order; a [Dff_arity] or an [Undefined] D, then an [Undefined_output],
    in statement order. Other exceptions from [build] propagate. *)

val canonical :
  name:string ->
  signals:int ->
  signal_name:(int -> string) ->
  kind:(int -> Gate.kind) ->
  fanins:(int -> int array) ->
  outputs:int array ->
  (Circuit.t, error) result
(** The canonical form of the uniquely named nodes [0 .. signals - 1]:
    {!run} over them in sorted-name order, outputs marked in sorted-name
    order, so it depends on the named structure alone, not on the
    numbering. Errors carry line 0. *)

(** Declarations keyed by name (BLIF, Verilog). A [Gate] carries the
    front end's payload, from which its [build] adds the nodes. *)
module Table : sig
  type 'a t
  type 'a decl = Input | Dff of int (* its D *) | Gate of 'a | Output

  val create : unit -> 'a t

  val id : 'a t -> string -> int
  (** A name's signal id, made on first use. *)

  val name : 'a t -> int -> string
  val add : 'a t -> line:int -> string -> 'a decl -> unit

  val fresh_names : 'a t -> string -> unit -> string
  (** {!Circuit.fresh_names} over the declared names. *)

  val run :
    'a t ->
    Circuit.Builder.t ->
    build:((int -> int) -> string -> 'a -> int) ->
    (Circuit.t, error) result
  (** {!Elaborate.run} in [add] order; [build resolve name payload]. *)
end
