(** Client side of the service protocol — what [fpgapart submit],
    [svc-stats] and friends (and the tests) speak.

    A connection is persistent: {!request} can be called repeatedly, one
    frame out, one frame in. {!rpc} is the one-shot
    connect/request/close convenience. *)

type conn

val connect : string -> (conn, string) result
(** Connect to the daemon's Unix-domain socket at the given path. Also
    sets SIGPIPE to ignore for the process, so a daemon vanishing
    mid-request surfaces as an [Error] rather than a fatal signal. *)

val request : conn -> Protocol.request -> (Obs.Json.t, string) result
(** Send one request, wait for its reply frame. [Error] on connection
    loss, a malformed reply, or a request past {!Codec.max_frame} (not
    sent; the message names the cap); protocol-level failures come back
    as [Ok] [{"ok": false, ...}] documents — use {!ok_or_error}. *)

val close : conn -> unit

val rpc : socket:string -> Protocol.request -> (Obs.Json.t, string) result
(** [connect], one {!request}, [close]. *)

(** Jittered exponential backoff schedule for {!rpc_retry}. *)
module Backoff : sig
  type t = {
    attempts : int;  (** total tries, including the first *)
    base : float;  (** first retry delay, seconds *)
    cap : float;  (** upper bound on any single delay *)
    jitter : float;  (** fraction of each delay randomized away, 0..1 *)
  }

  val default : t
  (** 5 attempts, 50 ms base doubling to a 2 s cap, 0.5 jitter. *)

  val delay : rand:(unit -> float) -> t -> int -> float
  (** [delay ~rand t i] is the sleep before retry [i] (0-based):
      [min cap (base * 2^i)] minus a uniform jitter slice drawn from
      [rand () ∈ \[0, 1)]. *)

  val schedule : ?rand:(unit -> float) -> t -> float list
  (** All [attempts - 1] delays in order; [rand] defaults to the
      zero-jitter constant, making the schedule deterministic. *)
end

val rpc_retry :
  ?backoff:Backoff.t ->
  ?sleep:(float -> unit) ->
  ?rand:(unit -> float) ->
  socket:string ->
  Protocol.request ->
  (Obs.Json.t, string) result
(** {!rpc} with bounded retries on the two transient failures: the
    connect being refused (daemon not up yet, or its listen backlog
    full) and the typed [overloaded] backpressure reply. Any other
    outcome — success or not — returns immediately. Never used
    implicitly: plain {!rpc} stays retry-free, so byte-identity gates on
    existing tooling are unaffected; callers opt in (the CLI gates it
    behind [--retries]). [sleep]/[rand] exist for deterministic tests. *)

val ok_or_error : Obs.Json.t -> (Obs.Json.t, string * string) result
(** Split a reply on its ["ok"] field: [Ok reply] when true, [Error
    (code, msg)] from the ["error"] object when false (with
    [bad_request]-flavoured fallbacks if the reply is malformed). *)
