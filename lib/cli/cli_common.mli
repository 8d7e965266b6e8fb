(** Cmdliner terms shared by the [fpgapart] CLI and the bench harness
    ([bench/main.exe]), so the two frontends cannot drift on flag names,
    documentation, environment defaults, or parsing.

    Every term is a builder taking its default (and occasionally extra flag
    aliases), because the frontends legitimately differ there — the bench
    harness seeds with 7 and calls the multi-start knob [--kway-runs] — but
    must agree on everything else. *)

val positive_int : int Cmdliner.Arg.conv
(** An integer converter that rejects values below 1 with a message
    naming the value; Cmdliner adds the flag or variable. *)

val seed : ?default:int -> unit -> int Cmdliner.Term.t
(** [--seed N] — random seed (default 1). *)

val runs : ?default:int -> ?extra_names:string list -> unit -> int Cmdliner.Term.t
(** [--runs N] — multi-start runs (default 5). [extra_names] adds flag
    aliases (the bench harness keeps its historical [--kway-runs]). *)

val replication_threshold : unit -> int option Cmdliner.Term.t
(** [--replicate T] / [-T T] — functional-replication threshold; absent
    means replication off. A negative [T] is a parse error. *)

val replication_of_threshold : int option -> [ `None | `Functional of int ]
(** The {!Core.Kway.options} view of {!replication_threshold}'s value. *)

val stats_json : unit -> string option Cmdliner.Term.t
(** [--stats-json FILE] — write engine telemetry as JSON. *)

val trace : unit -> string option Cmdliner.Term.t
(** [--trace FILE] — write a Chrome trace-event JSON wall-clock trace
    (Perfetto-loadable; pid = run index, tid = domain). Absent means no
    tracing. *)

val jobs : unit -> int Cmdliner.Term.t
(** [--jobs N] / [-j N] — domains for the parallel multi-start search.
    When the flag is absent, the [FPGAPART_JOBS] environment variable
    supplies the value; when that is unset too, 1 applies. The result
    never depends on it (see README, "Parallelism"). Non-integer and
    non-positive values — from the flag or from [FPGAPART_JOBS] — are
    rejected at parse time with a Cmdliner error naming the offending
    flag or variable ([--runs] validates the same way), so a bad budget
    never reaches {!Core.Kway.Options.make}. *)

val objective : unit -> Fpga.Objective.t Cmdliner.Term.t
(** [--objective NAME] — the cost objective (default
    {!Fpga.Objective.paper}). Parsed via {!Fpga.Objective.of_name}, so an
    unknown name is a Cmdliner parse error listing the valid names. *)

val multilevel : unit -> Core.Kway.strategy Cmdliner.Term.t
(** [--multilevel] — the {!Core.Kway.strategy} for the run: [Flat]
    without the flag, [Multilevel] with
    {!Core.Kway.Options.default_multilevel} with it. The V-cycle has no
    settings to pass. *)

val device_lib : unit -> string option Cmdliner.Term.t
(** [--device-lib FILE] — JSON device library; absent means the built-in
    XC3000 family. *)

val library_of_path : string option -> (Fpga.Library.t, string) result
(** Resolve {!device_lib}'s value: [None] is {!Fpga.Library.xc3000},
    [Some path] loads and validates the JSON file
    ({!Fpga.Library.load}). *)

val log_level : unit -> Obs.Log.level Cmdliner.Term.t
(** [--log-level LEVEL] — structured-log threshold for [fpgapart serve]
    (debug | info | warn | error; default info). When the flag is
    absent the [FPGAPART_LOG] environment variable supplies the value.
    Unknown names are a Cmdliner parse error listing the valid
    levels. *)

val log_file : unit -> string option Cmdliner.Term.t
(** [--log-file FILE] — append JSON-lines structured logs to [FILE];
    absent logs to stderr. *)

val log_scrub : unit -> bool Cmdliner.Term.t
(** [--log-scrub] — null timestamps and wall-derived fields in log
    lines ({!Obs.Log} scrub mode), for byte-comparable log streams. *)

val socket : unit -> string Cmdliner.Term.t
(** [--socket PATH] — the daemon's Unix-domain socket, shared by
    [fpgapart serve] and every client subcommand. Required; the
    [FPGAPART_SOCKET] environment variable supplies the default. *)
