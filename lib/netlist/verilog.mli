(** Reader and writer for gate-level structural Verilog.

    The subset covers the style the ISCAS benchmark distributions use —
    one module, scalar ports and wires, primitive gate instantiations, and
    D flip-flop instances — plus [assign] with bitwise expressions:
    {v
      module c17 (N1, N2, N3, N6, N7, N22, N23);
        input N1, N2, N3, N6, N7;
        output N22, N23;
        wire N10, N11, N16, N19;
        nand g1 (N10, N1, N3);
        nand g2 (N11, N3, N6);
        assign N16 = ~(N2 & N11);
        nand g4 (N19, N11, N7);
        nand g5 (N22, N10, N16);
        nand g6 (N23, N16, N19);
      endmodule
    v}

    Primitives: [and], [nand], [or], [nor], [xor], [xnor], [not], [buf]
    (first port drives, the rest read). Flip-flops: [dff (Q, D)] or the
    ISCAS'89 three-port form [dff (CK, Q, D)] (the clock is implicit in
    the circuit model). [assign] right-hand sides may use [~ & | ^],
    parentheses, identifiers and the constants [1'b0] / [1'b1]. Comments
    ([//] and [/* */]) are ignored.

    Names resolve through {!Elaborate.run}, declarations in file order;
    a syntax error (["line N: ..."]) comes first, and resolution errors
    carry no line (["undriven signal: x"]). *)

val parse : string -> (Circuit.t, string) result

val to_string : Circuit.t -> string
(** Emits one module with primitive instances and [dff] flip-flops.
    [parse (to_string c)] is functionally equivalent to [c]. *)

val write_file : string -> Circuit.t -> unit
