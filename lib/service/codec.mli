(** Wire format of the partition service: length-prefixed JSON frames over
    a Unix-domain socket.

    A frame is a 4-byte big-endian payload length followed by that many
    bytes of UTF-8 JSON (one {!Obs.Json.t} document). Both sides use the
    same codec, so the client and the daemon cannot drift on framing.

    Both sides enforce {!max_frame}. The reader reports a length prefix
    beyond the limit as [`Oversized] {e without} allocating or reading the
    payload, which is what lets the daemon shrug off garbage bytes (a
    random 4-byte prefix is almost always a huge bogus length) as well as
    deliberate memory-exhaustion frames. After any read error the stream
    position is unspecified — close the connection. The writer refuses
    a frame past the cap before writing a byte of it, so no peer is sent
    a frame its reader would refuse. *)

val max_frame : int
(** The payload cap, 16 MiB — generous for netlist texts, small
    enough that a malicious length prefix cannot balloon the daemon. *)

type read_error =
  [ `Eof  (** clean end of stream before any byte of a frame *)
  | `Oversized of int  (** declared payload length beyond the cap *)
  | `Truncated  (** stream ended mid-frame *)
  | `Malformed of string  (** payload is not valid JSON *) ]

val read_error_to_string : read_error -> string
(** [`Oversized] names the cap: ["frame of N bytes exceeds the 16 MiB
    (16777216-byte) frame limit"]. *)

val read_frame : Unix.file_descr -> (Obs.Json.t, read_error) result

val write_frame :
  Unix.file_descr -> Obs.Json.t -> (unit, [> `Oversized of int ]) result
(** [Error (`Oversized n)], with nothing written, when the [n]-byte
    payload exceeds {!max_frame}. Raises [Unix.Unix_error] if the peer is
    gone (the caller treats any raise as "connection lost"). *)
