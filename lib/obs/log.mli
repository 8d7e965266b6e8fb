(** Leveled structured logging as JSON lines.

    One log record per line, compact JSON ({!Json.to_compact_string}),
    with three fixed leading fields — ["ts_secs"] (wall clock), ["level"],
    ["event"] — followed by the caller's fields. The service daemon logs
    its job lifecycle through this module with a per-job correlation id on
    every line.

    {b Scrub mode} renders each record through [Scrub.null_mask Log]:
    the stats determinism contract plus ["_ms"] (see {!Scrub}), which
    nulls ["ts_secs"] itself too. Two identical serialized runs must then
    produce byte-identical logs — test_service enforces exactly that
    against a live daemon. *)

type level = Debug | Info | Warn | Error

val level_to_string : level -> string
(** ["debug"], ["info"], ["warn"], ["error"] — the wire form used on
    every line and accepted by [--log-level] / [FPGAPART_LOG]. *)

val level_of_string : string -> level option
(** Case-insensitive inverse of {!level_to_string} (accepts ["warning"]
    for [Warn]). [None] on anything else. *)

type t
(** A logger: either {!null} or an emitting sink with a minimum level and
    a scrub flag. Like {!Obs.t}, pass it by value; logging to {!null} is
    free. *)

val null : t
(** Drops everything. The default wherever a logger is optional. *)

val make : ?level:level -> ?scrub:bool -> (string -> unit) -> t
(** [make emit] builds a logger calling [emit] with one complete line
    (no trailing newline) per record at or above [level] (default
    [Info]). With [scrub = true] (default [false]) volatile fields render
    as [null] (see the scrub contract above). Lines are emitted under a
    module-wide mutex, so records from concurrent threads never
    interleave mid-line. *)

val to_channel : ?level:level -> ?scrub:bool -> out_channel -> t
(** {!make} writing [line ^ "\n"] to the channel and flushing per record,
    so `tail -f` of a log file always sees whole records. *)

val to_buffer : ?level:level -> ?scrub:bool -> Buffer.t -> t
(** {!make} appending [line ^ "\n"] to a buffer — the test harness's way
    of capturing a daemon's log for byte-comparison. *)

val enabled : t -> level -> bool
(** Whether a record at this level would be emitted. Guard costly field
    construction with it, as with {!Obs.enabled}. *)

val log : t -> level -> string -> (string * Json.t) list -> unit
(** [log t lvl event fields] emits one record. [event] is a stable
    dot-separated name (["job.enqueue"], ["server.drain"]); [fields]
    follow the scrub naming contract (wall-derived values under
    ["_ms"]/["_secs"] keys). *)

val debug : t -> string -> (string * Json.t) list -> unit
val info : t -> string -> (string * Json.t) list -> unit
val warn : t -> string -> (string * Json.t) list -> unit
val error : t -> string -> (string * Json.t) list -> unit
