(** Reader and writer for the Berkeley Logic Interchange Format (BLIF).

    The subset implemented covers combinational logic ([.names] with
    on-set or off-set single-output covers) and flip-flops ([.latch]),
    which is what logic-synthesis flows exchange netlists with:
    {v
      .model adder
      .inputs a b
      .outputs s
      .names a b s
      10 1
      01 1
      .latch d q 0
      .end
    v}

    Parsing synthesises each cover into AND/OR/NOT gates; latch initial
    values other than 0 are not representable (the simulator powers up at
    0) and are accepted but treated as 0. Writing emits one [.names] per
    gate (XOR/XNOR as explicit minterm covers) and one [.latch] per
    flip-flop, so [parse (to_string c)] is functionally equivalent to
    [c].

    Names resolve through {!Elaborate.run}, declarations in file order.
    A syntax error comes first; resolution errors read ["line N: ..."]
    but for a cover of mixed polarity and a builder rejection. *)

val parse : string -> (Circuit.t, string) result

val to_string : Circuit.t -> string
(** Raises [Invalid_argument] on an XOR/XNOR gate wider than 12 inputs
    (decompose first; the minterm cover would be excessive). *)

val write_file : string -> Circuit.t -> unit
