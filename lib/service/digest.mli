(** Content-addressed cache keys for partition jobs.

    The service must serve a resubmitted design from its result cache even
    when the netlist file arrived with its lines permuted: the circuit is
    the same, only the declaration order differs. Hashing the input bytes
    would miss that, and hashing the parsed structures directly would too —
    the parser numbers nodes in resolution order, and everything downstream
    (technology mapping, the hypergraph, the multi-start RNG streams) is
    sensitive to that numbering.

    The fix is a canonicalisation pass at the {e circuit} level, before
    mapping: {!canonical_circuit} rebuilds the circuit with nodes ordered
    by signal name (names are unique, so the order is total and
    input-order-independent). The service both {e hashes} and {e runs} the
    canonical form, which buys two properties at once: permuted
    submissions produce the same {!job_key}, and a cache miss recomputes
    exactly the document a cache hit would have returned — byte for byte
    after scrubbing.

    The key itself is an MD5 over the canonical {e hypergraph} (cells with
    areas, pins, nets and per-output supports — what the partitioner
    actually sees), the device library, and the result-shaping options
    (the fields {!Experiments.Obs_report.options_to_json} serialises). *)

val canonical_circuit : Netlist.Circuit.t -> Netlist.Circuit.t
(** Rebuild the circuit with nodes in sorted-by-name order (inputs,
    gates and flip-flops alike; primary outputs sorted too). Idempotent,
    semantics-preserving, and independent of the node order of the
    input — two parses of line-permuted netlist files canonicalise to
    structurally identical circuits. *)

val hypergraph_fingerprint : Hypergraph.t -> string
(** MD5 hex digest of the full hypergraph structure: every cell's name,
    area, resource demand vector, pin-to-net wiring and per-output
    support masks, every net's name and external flag, all in index
    order. Index order is only meaningful downstream of
    {!canonical_circuit}. *)

val options_fingerprint : Core.Kway.options -> string
(** MD5 hex digest of the {!Obs.Json.to_string} rendering of
    {!Experiments.Obs_report.options_to_json}, which states which fields
    identify a result. A float the JSON format would round (it keeps 12
    significant digits) is hashed as its exact [%h] form instead, so two
    options are fingerprinted alike exactly when their serialised fields
    are equal. *)

val job_key :
  library:Fpga.Library.t -> options:Core.Kway.options -> Hypergraph.t -> string
(** The cache key: MD5 over {!hypergraph_fingerprint}, a fingerprint of
    the device list (name, capacity, terminals, price, and the full
    per-axis resource capacities and utilization windows per device — two
    devices differing only on a secondary axis hash differently; a price
    or window that six decimals would round is hashed exactly) and
    {!options_fingerprint}. *)

val lineage_key : base:string -> edited:string -> string
(** Cache key for a warm (resubmit) result: MD5 over the base partition's
    {!job_key} and the edited circuit's {!job_key}. A warm result depends
    on {e which} partition seeded it, so it must never be cached under the
    edited circuit's own key — that key's entry is reserved for cold runs,
    preserving the submit path's byte-determinism contract. *)
