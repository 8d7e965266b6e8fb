module J = Obs.Json
module Log = Obs.Log

(* u32 LE key_len | u32 LE doc_len | 16B MD5(key ^ doc) | key | doc *)
let header_bytes = 4 + 4 + 16
let max_record = 64 * 1024 * 1024  (* sanity bound on either length field *)

type location = { seg : int; off : int; key_len : int; doc_len : int }

type t = {
  dir : string;
  segment_bytes : int;
  log : Log.t;
  mutex : Mutex.t;
  index : (string, location) Hashtbl.t;
  read_fds : (int, Unix.file_descr) Hashtbl.t;
  mutable write_seg : int;
  mutable write_fd : Unix.file_descr option;  (* open lazily, O_APPEND *)
  mutable write_off : int;
  mutable corrupt : int;
  mutable closed : bool;
}

let segment_path t seg = Filename.concat t.dir (Printf.sprintf "cache-%d.seg" seg)

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

(* Scan one segment, indexing sound records. Returns the offset past the
   last whole record (the resume point if this becomes the write
   segment). A bad checksum skips just that record — the length fields
   still frame it; an unreadable header or a length running past EOF is
   a torn tail and stops the scan. *)
let scan_segment t seg =
  let path = segment_path t seg in
  let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      let size = (Unix.fstat fd).Unix.st_size in
      let header = Bytes.create header_bytes in
      let rec go off =
        if off + header_bytes > size then begin
          if off <> size then begin
            t.corrupt <- t.corrupt + 1;
            Log.warn t.log "disk_cache.torn_tail"
              [ ("segment", J.String path); ("offset", J.Int off) ]
          end;
          off
        end
        else begin
          really_read fd header 0 header_bytes;
          let key_len = get_u32 header 0 and doc_len = get_u32 header 4 in
          if
            key_len <= 0 || doc_len <= 0 || key_len > max_record
            || doc_len > max_record
            || off + header_bytes + key_len + doc_len > size
          then begin
            t.corrupt <- t.corrupt + 1;
            Log.warn t.log "disk_cache.torn_tail"
              [ ("segment", J.String path); ("offset", J.Int off) ];
            off
          end
          else begin
            let body = Bytes.create (key_len + doc_len) in
            really_read fd body 0 (key_len + doc_len);
            let key = Bytes.sub_string body 0 key_len in
            let doc = Bytes.sub_string body key_len doc_len in
            let stored = Bytes.sub_string header 8 16 in
            let next = off + header_bytes + key_len + doc_len in
            if not (String.equal stored (checksum key doc)) then begin
              t.corrupt <- t.corrupt + 1;
              Log.warn t.log "disk_cache.bad_checksum"
                [ ("segment", J.String path); ("offset", J.Int off) ]
            end
            else if not (Hashtbl.mem t.index key) then
              Hashtbl.replace t.index key { seg; off; key_len; doc_len };
            go next
          end
        end
      in
      go 0)

let list_segments dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter_map (fun name ->
         match Scanf.sscanf_opt name "cache-%d.seg%!" Fun.id with
         | Some n when n >= 0 -> Some n
         | _ -> None)
  |> List.sort compare

let open_dir ?(log = Log.null) ?(segment_bytes = 64 * 1024 * 1024) dir =
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
  | Ok () ->
      let t =
        {
          dir;
          segment_bytes;
          log;
          mutex = Mutex.create ();
          index = Hashtbl.create 256;
          read_fds = Hashtbl.create 4;
          write_seg = 0;
          write_fd = None;
          write_off = 0;
          corrupt = 0;
          closed = false;
        }
      in
      let segs = list_segments dir in
      (* Scan ascending (first record for a key wins); appends resume at
         the end of the last whole record of the newest segment. *)
      let seg, off =
        List.fold_left
          (fun _ s ->
            match scan_segment t s with
            | e -> (s, e)
            | exception Unix.Unix_error (e, _, _) ->
                t.corrupt <- t.corrupt + 1;
                Log.warn t.log "disk_cache.unreadable_segment"
                  [
                    ("segment", J.String (segment_path t s));
                    ("error", J.String (Unix.error_message e));
                  ];
                (s, 0))
          (0, 0) segs
      in
      (* Appends must land exactly at the indexed offsets. A segment
         with a torn or unreadable tail ends before its file does, so
         writing there (O_APPEND goes to the true end) would skew every
         future index entry — rotate to a fresh segment instead. *)
      let seg, off =
        if segs = [] then (0, 0)
        else
          let size =
            match Unix.stat (segment_path t seg) with
            | st -> st.Unix.st_size
            | exception Unix.Unix_error _ -> -1
          in
          if off = size then (seg, off) else (seg + 1, 0)
      in
      t.write_seg <- seg;
      t.write_off <- off;
      Log.info log "disk_cache.loaded"
        [
          ("dir", J.String dir);
          ("keys", J.Int (Hashtbl.length t.index));
          ("segments", J.Int (List.length segs));
          ("corrupt_skipped", J.Int t.corrupt);
        ];
      Ok t

let read_fd t seg =
  match Hashtbl.find_opt t.read_fds seg with
  | Some fd -> fd
  | None ->
      let fd = Unix.openfile (segment_path t seg) [ Unix.O_RDONLY ] 0 in
      Hashtbl.replace t.read_fds seg fd;
      fd

let find t key =
  Mutex.protect t.mutex (fun () ->
      match Hashtbl.find_opt t.index key with
      | None -> None
      | Some loc -> (
          match
            let fd = read_fd t loc.seg in
            ignore (Unix.lseek fd (loc.off + header_bytes) Unix.SEEK_SET);
            let body = Bytes.create (loc.key_len + loc.doc_len) in
            really_read fd body 0 (loc.key_len + loc.doc_len);
            let stored_key = Bytes.sub_string body 0 loc.key_len in
            let doc = Bytes.sub_string body loc.key_len loc.doc_len in
            if String.equal stored_key key then Some doc else None
          with
          | Some doc -> (
              match J.of_string doc with
              | Ok j -> Some j
              | Error _ ->
                  t.corrupt <- t.corrupt + 1;
                  Hashtbl.remove t.index key;
                  Log.warn t.log "disk_cache.bad_record"
                    [ ("key", J.String key) ];
                  None)
          | None | (exception End_of_file) | (exception Unix.Unix_error _) ->
              t.corrupt <- t.corrupt + 1;
              Hashtbl.remove t.index key;
              Log.warn t.log "disk_cache.bad_record" [ ("key", J.String key) ];
              None))

let mem t key = Mutex.protect t.mutex (fun () -> Hashtbl.mem t.index key)

let writer t =
  match t.write_fd with
  | Some fd -> fd
  | None ->
      let fd =
        Unix.openfile
          (segment_path t t.write_seg)
          [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ]
          0o644
      in
      t.write_fd <- Some fd;
      fd

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
        if t.write_off > 0 && t.write_off + header_bytes + key_len + doc_len
                              > t.segment_bytes
        then begin
          (match t.write_fd with
          | Some fd ->
              (try Unix.close fd with Unix.Unix_error _ -> ());
              t.write_fd <- None
          | None -> ());
          t.write_seg <- t.write_seg + 1;
          t.write_off <- 0
        end;
        let buf = Bytes.create (header_bytes + key_len + doc_len) in
        put_u32 buf 0 key_len;
        put_u32 buf 4 doc_len;
        Bytes.blit_string (checksum key doc_s) 0 buf 8 16;
        Bytes.blit_string key 0 buf header_bytes key_len;
        Bytes.blit_string doc_s 0 buf (header_bytes + key_len) doc_len;
        really_write (writer t) buf;
        Hashtbl.replace t.index key
          { seg = t.write_seg; off = t.write_off; key_len; doc_len };
        t.write_off <- t.write_off + Bytes.length buf
      end)

let length t = Mutex.protect t.mutex (fun () -> Hashtbl.length t.index)

let segments t =
  Mutex.protect t.mutex (fun () ->
      let segs = Hashtbl.create 4 in
      Hashtbl.iter (fun _ loc -> Hashtbl.replace segs loc.seg ()) t.index;
      (* The write segment counts even before its first indexed record
         lands in it. *)
      if t.write_off > 0 || t.write_fd <> None then
        Hashtbl.replace segs t.write_seg ();
      Hashtbl.length segs)

let corrupt_skipped t = Mutex.protect t.mutex (fun () -> t.corrupt)

let close t =
  Mutex.protect t.mutex (fun () ->
      t.closed <- true;
      (match t.write_fd with
      | Some fd ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          t.write_fd <- None
      | None -> ());
      Hashtbl.iter
        (fun _ fd -> try Unix.close fd with Unix.Unix_error _ -> ())
        t.read_fds;
      Hashtbl.reset t.read_fds)
