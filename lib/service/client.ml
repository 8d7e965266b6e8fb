module J = Obs.Json

type conn = Unix.file_descr

let connect path =
  (* A daemon tearing the connection down mid-request (drain, crash) must
     come back as [EPIPE] from {!request}, not kill the client. *)
  ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore);
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () -> Ok fd
  | exception Unix.Unix_error (e, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Error
        (Printf.sprintf "cannot connect to %s: %s" path (Unix.error_message e))

let request fd req =
  match Codec.write_frame fd (Protocol.request_to_json req) with
  | exception Unix.Unix_error (e, _, _) ->
      Error ("connection lost: " ^ Unix.error_message e)
  | Error err -> Error (Codec.read_error_to_string err)
  | Ok () -> (
      match Codec.read_frame fd with
      | Ok reply -> Ok reply
      | Error err -> Error (Codec.read_error_to_string err)
      | exception Unix.Unix_error (e, _, _) ->
          Error ("connection lost: " ^ Unix.error_message e))

let close fd = try Unix.close fd with Unix.Unix_error _ -> ()

let rpc ~socket req =
  match connect socket with
  | Error _ as e -> e
  | Ok fd ->
      let reply = request fd req in
      close fd;
      reply

module Backoff = struct
  type t = { attempts : int; base : float; cap : float; jitter : float }

  let default = { attempts = 5; base = 0.05; cap = 2.0; jitter = 0.5 }

  (* Full-jitter-lite: exponential growth capped at [cap], minus a
     uniform slice of up to [jitter] of itself, so a thundering herd of
     refused clients spreads out instead of re-colliding in lockstep.
     [rand] draws from [0, 1); pinning it makes the schedule
     deterministic for tests. *)
  let delay ~rand t i =
    let exp = t.base *. (2. ** float_of_int i) in
    let capped = Float.min t.cap exp in
    capped -. (t.jitter *. capped *. rand ())

  let schedule ?(rand = fun () -> 0.) t =
    List.init (max 0 (t.attempts - 1)) (delay ~rand t)
end

(* What a retry can fix: the daemon not (yet) accepting on the socket —
   connection refused, or the socket file not created yet — and the
   typed [overloaded] backpressure reply. Everything else (bad request,
   infeasible, a lost established connection) is not transient. *)
let retryable = function
  | Error msg ->
      String.length msg >= 14 && String.equal (String.sub msg 0 14) "cannot connect"
  | Ok reply -> (
      match Option.bind (J.member "ok" reply) J.to_bool with
      | Some false -> (
          match
            Option.bind
              (Option.bind (J.member "error" reply) (J.member "code"))
              J.to_str
          with
          | Some code -> String.equal code Protocol.code_overloaded
          | None -> false)
      | _ -> false)

let rpc_retry ?(backoff = Backoff.default) ?(sleep = Unix.sleepf) ?rand
    ~socket req =
  let rand =
    match rand with
    | Some r -> r
    | None ->
        let st = Random.State.make_self_init () in
        fun () -> Random.State.float st 1.0
  in
  let rec go i reply =
    if retryable reply && i < backoff.Backoff.attempts - 1 then begin
      sleep (Backoff.delay ~rand backoff i);
      go (i + 1) (rpc ~socket req)
    end
    else reply
  in
  go 0 (rpc ~socket req)

let ok_or_error reply =
  match Option.bind (J.member "ok" reply) J.to_bool with
  | Some true -> Ok reply
  | Some false ->
      let err = J.member "error" reply in
      let get name =
        Option.bind (Option.bind err (J.member name)) J.to_str
      in
      Error
        ( Option.value (get "code") ~default:Protocol.code_bad_request,
          Option.value (get "msg") ~default:"unspecified error" )
  | None -> Error (Protocol.code_bad_request, "malformed reply")
