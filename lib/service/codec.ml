let max_frame = 16 * 1024 * 1024

type read_error =
  [ `Eof | `Oversized of int | `Truncated | `Malformed of string ]

let read_error_to_string = function
  | `Eof -> "end of stream"
  | `Oversized n ->
      Printf.sprintf "frame of %d bytes exceeds the %d MiB (%d-byte) frame limit"
        n (max_frame / (1024 * 1024)) max_frame
  | `Truncated -> "stream ended mid-frame"
  | `Malformed msg -> msg

(* Read exactly [len] bytes; [`Partial] distinguishes EOF-at-a-frame-
   boundary (a clean close) from EOF inside one (a truncated frame). *)
let read_exactly fd len =
  let buf = Bytes.create len in
  let rec loop off =
    if off = len then `Ok buf
    else
      match Unix.read fd buf off (len - off) with
      | 0 -> if off = 0 then `Eof else `Partial
      | n -> loop (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop off
  in
  loop 0

let read_frame fd =
  match read_exactly fd 4 with
  | `Eof -> Error `Eof
  | `Partial -> Error `Truncated
  | `Ok header -> (
      let len =
        (Char.code (Bytes.get header 0) lsl 24)
        lor (Char.code (Bytes.get header 1) lsl 16)
        lor (Char.code (Bytes.get header 2) lsl 8)
        lor Char.code (Bytes.get header 3)
      in
      if len > max_frame then Error (`Oversized len)
      else
        match read_exactly fd len with
        | `Eof | `Partial -> Error `Truncated
        | `Ok payload -> (
            match Obs.Json.of_string (Bytes.unsafe_to_string payload) with
            | Ok json -> Ok json
            | Error msg -> Error (`Malformed msg)))

let write_all fd buf =
  let len = Bytes.length buf in
  let rec loop off =
    if off < len then
      match Unix.write fd buf off (len - off) with
      | n -> loop (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop off
  in
  loop 0

let write_frame fd json =
  let payload = Obs.Json.to_string json in
  let len = String.length payload in
  if len > max_frame then Error (`Oversized len)
  else begin
    let buf = Bytes.create (4 + len) in
    Bytes.set buf 0 (Char.chr ((len lsr 24) land 0xFF));
    Bytes.set buf 1 (Char.chr ((len lsr 16) land 0xFF));
    Bytes.set buf 2 (Char.chr ((len lsr 8) land 0xFF));
    Bytes.set buf 3 (Char.chr (len land 0xFF));
    Bytes.blit_string payload 0 buf 4 len;
    write_all fd buf;
    Ok ()
  end
