module J = Obs.Json
module Log = Obs.Log

(* u32 LE key_len | u32 LE doc_len | 16B MD5(key ^ doc) | key | doc *)
let header_bytes = 4 + 4 + 16
let max_record = 64 * 1024 * 1024  (* sanity bound on either length field *)

type location = { off : int; key_len : int; doc_len : int }

type t = {
  log : Log.t;
  mutex : Mutex.t;
  index : (string, location) Hashtbl.t;
  fd : Unix.file_descr;  (* O_RDWR | O_APPEND: reads seek, writes append *)
  mutable write_off : int;
  mutable corrupt : int;
  mutable closed : bool;
}

let checksum key doc = Stdlib.Digest.string (key ^ doc)

let put_u32 b off v =
  Bytes.set b off (Char.chr (v land 0xff));
  Bytes.set b (off + 1) (Char.chr ((v lsr 8) land 0xff));
  Bytes.set b (off + 2) (Char.chr ((v lsr 16) land 0xff));
  Bytes.set b (off + 3) (Char.chr ((v lsr 24) land 0xff))

let get_u32 b off =
  Char.code (Bytes.get b off)
  lor (Char.code (Bytes.get b (off + 1)) lsl 8)
  lor (Char.code (Bytes.get b (off + 2)) lsl 16)
  lor (Char.code (Bytes.get b (off + 3)) lsl 24)

let really_read fd buf off len =
  let rec go off len =
    if len > 0 then begin
      let n = Unix.read fd buf off len in
      if n = 0 then raise End_of_file;
      go (off + n) (len - n)
    end
  in
  go off len

(* Read the record framed by [loc] and return its key and document when
   the stored checksum matches them. *)
let read_record fd loc =
  ignore (Unix.lseek fd loc.off Unix.SEEK_SET);
  let buf = Bytes.create (header_bytes + loc.key_len + loc.doc_len) in
  really_read fd buf 0 (Bytes.length buf);
  let key = Bytes.sub_string buf header_bytes loc.key_len in
  let doc = Bytes.sub_string buf (header_bytes + loc.key_len) loc.doc_len in
  if String.equal (Bytes.sub_string buf 8 16) (checksum key doc) then
    Some (key, doc)
  else None

(* Index the sound records of the file and return the offset past the
   last whole one. A bad checksum skips just that record (the length
   fields still frame it); an unreadable header or a length running past
   EOF is a torn tail and ends the scan. *)
let scan t path size =
  let header = Bytes.create header_bytes in
  let torn off =
    t.corrupt <- t.corrupt + 1;
    Log.warn t.log "disk_cache.torn_tail"
      [ ("file", J.String path); ("offset", J.Int off) ];
    off
  in
  let rec go off =
    if off = size then off
    else if off + header_bytes > size then torn off
    else begin
      ignore (Unix.lseek t.fd off Unix.SEEK_SET);
      really_read t.fd header 0 header_bytes;
      let loc = { off; key_len = get_u32 header 0; doc_len = get_u32 header 4 } in
      let next = off + header_bytes + loc.key_len + loc.doc_len in
      if
        loc.key_len <= 0 || loc.doc_len <= 0 || loc.key_len > max_record
        || loc.doc_len > max_record || next > size
      then torn off
      else begin
        (match read_record t.fd loc with
        | Some (key, _) ->
            if not (Hashtbl.mem t.index key) then Hashtbl.replace t.index key loc
        | None ->
            t.corrupt <- t.corrupt + 1;
            Log.warn t.log "disk_cache.bad_checksum"
              [ ("file", J.String path); ("offset", J.Int off) ]);
        go next
      end
    end
  in
  go 0

let open_dir ?(log = Log.null) dir =
  let path = Filename.concat dir "cache-0.seg" in
  let fail what e =
    Error (Printf.sprintf "cannot %s %s: %s" what path (Unix.error_message e))
  in
  match
    if Sys.file_exists dir then
      if Sys.is_directory dir then Ok ()
      else Error (dir ^ " exists and is not a directory")
    else
      match Unix.mkdir dir 0o755 with
      | () -> Ok ()
      | exception Unix.Unix_error (e, _, _) ->
          Error
            (Printf.sprintf "cannot create %s: %s" dir (Unix.error_message e))
  with
  | Error _ as e -> e
  | Ok () -> (
      match
        Unix.openfile path
          [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_APPEND; Unix.O_CLOEXEC ]
          0o644
      with
      | exception Unix.Unix_error (e, _, _) -> fail "open" e
      | fd -> (
          let t =
            {
              log;
              mutex = Mutex.create ();
              index = Hashtbl.create 256;
              fd;
              write_off = 0;
              corrupt = 0;
              closed = false;
            }
          in
          (* Appends must land exactly at the indexed offsets: cut a torn
             tail so the end of the last whole record is the end of the
             file, where O_APPEND writes. *)
          match
            let size = (Unix.fstat fd).Unix.st_size in
            let off = scan t path size in
            if off < size then Unix.ftruncate fd off;
            off
          with
          | exception (Unix.Unix_error (e, _, _)) ->
              (try Unix.close fd with Unix.Unix_error _ -> ());
              fail "read" e
          | off ->
              t.write_off <- off;
              Log.info log "disk_cache.loaded"
                [
                  ("dir", J.String dir);
                  ("keys", J.Int (Hashtbl.length t.index));
                  ("corrupt_skipped", J.Int t.corrupt);
                ];
              Ok t))

let find t key =
  Mutex.protect t.mutex (fun () ->
      match Hashtbl.find_opt t.index key with
      | None -> None
      | Some _ when t.closed -> None  (* the descriptor number may be reused *)
      | Some loc -> (
          match
            match read_record t.fd loc with
            | Some (stored_key, doc) when String.equal stored_key key ->
                Result.to_option (J.of_string doc)
            | _ -> None
          with
          | Some _ as found -> found
          | None | (exception End_of_file) | (exception Unix.Unix_error _) ->
              t.corrupt <- t.corrupt + 1;
              Hashtbl.remove t.index key;
              Log.warn t.log "disk_cache.bad_record" [ ("key", J.String key) ];
              None))

let really_write fd buf =
  let len = Bytes.length buf in
  let rec go off =
    if off < len then go (off + Unix.write fd buf off (len - off))
  in
  go 0

let add t key doc =
  Mutex.protect t.mutex (fun () ->
      if not (t.closed || Hashtbl.mem t.index key) then begin
        let doc_s = J.to_compact_string doc in
        let key_len = String.length key and doc_len = String.length doc_s in
        let buf = Bytes.create (header_bytes + key_len + doc_len) in
        put_u32 buf 0 key_len;
        put_u32 buf 4 doc_len;
        Bytes.blit_string (checksum key doc_s) 0 buf 8 16;
        Bytes.blit_string key 0 buf header_bytes key_len;
        Bytes.blit_string doc_s 0 buf (header_bytes + key_len) doc_len;
        (* A failed write is cut back so the next append still lands
           at its indexed offset. *)
        (try really_write t.fd buf
         with Unix.Unix_error _ as e ->
           (try Unix.ftruncate t.fd t.write_off with Unix.Unix_error _ -> ());
           raise e);
        Hashtbl.replace t.index key { off = t.write_off; key_len; doc_len };
        t.write_off <- t.write_off + Bytes.length buf
      end)

let length t = Mutex.protect t.mutex (fun () -> Hashtbl.length t.index)

let corrupt_skipped t = Mutex.protect t.mutex (fun () -> t.corrupt)

let close t =
  Mutex.protect t.mutex (fun () ->
      if not t.closed then begin
        t.closed <- true;
        try Unix.close t.fd with Unix.Unix_error _ -> ()
      end)
