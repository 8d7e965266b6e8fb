(** Reader and writer for the ISCAS [.bench] netlist format.

    This is the textual format of the ISCAS'85/'89 benchmark suites the
    paper evaluates on. Grammar (comments start with [#]):
    {v
      INPUT(a)
      OUTPUT(z)
      g = NAND(a, b)
      q = DFF(g)
    v} *)

val parse : string -> (Circuit.t, string) result
(** Parse from the contents of a [.bench] file. Lines split at ['\n'] and
    count from 1; [#] starts a comment; [String.trim]'s whitespace is
    insignificant around names, [=], parentheses and commas; keywords and
    gate names are case-insensitive; empty call arguments are dropped, and
    the argument of [INPUT]/[OUTPUT] is not checked for identifier
    characters.

    Every error message starts with ["line N: "], except the
    [Circuit.Builder] errors (a gate's arity), which are passed through.
    When a text has several faults, the one reported is decided in this
    order:
    + the first syntactically bad line, in line order;
    + then the first {!Elaborate.run} error, statements in line order:
      a duplicate definition; an undefined signal, a combinational
      cycle or a gate of the wrong arity met by the depth-first
      resolution, which also assigns node ids; a flip-flop without
      exactly one fanin or with an undefined D; an undefined output.

    Cost: the circuit plus O(lines + distinct names) scratch; each
    distinct name is copied out of the text once. *)

val to_string : Circuit.t -> string
(** Render a circuit back to [.bench] text, inputs first, then gates in
    topological order. [parse (to_string c)] is structurally identical to
    [c] up to node numbering. *)

val write_file : string -> Circuit.t -> unit
