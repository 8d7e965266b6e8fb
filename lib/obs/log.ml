type level = Debug | Info | Warn | Error

let level_to_string = function
  | Debug -> "debug"
  | Info -> "info"
  | Warn -> "warn"
  | Error -> "error"

let level_of_string s =
  match String.lowercase_ascii s with
  | "debug" -> Some Debug
  | "info" -> Some Info
  | "warn" | "warning" -> Some Warn
  | "error" -> Some Error
  | _ -> None

let severity = function Debug -> 0 | Info -> 1 | Warn -> 2 | Error -> 3

type sink = { emit : string -> unit; min_level : level; scrub : bool }
type t = sink option

let null = None

(* One global mutex keeps concurrently emitted lines whole. Ordering
   across threads is the caller's concern: the service emits every
   info-level lifecycle line under its own state mutex, which is what
   makes scrubbed logs byte-deterministic for a serialized workload. *)
let emit_mutex = Mutex.create ()

let make ?(level = Info) ?(scrub = false) emit =
  Some { emit; min_level = level; scrub }

let to_channel ?level ?scrub oc =
  make ?level ?scrub (fun line ->
      output_string oc line;
      output_char oc '\n';
      flush oc)

let to_buffer ?level ?scrub buf =
  make ?level ?scrub (fun line ->
      Buffer.add_string buf line;
      Buffer.add_char buf '\n')

let line ~scrub lvl event fields =
  (* Obs.Clock.wall without the cycle (Obs re-exports this module). *)
  let record =
    Json.Obj
      (("ts_secs", Json.Float (Unix.gettimeofday ()))
       :: ("level", Json.String (level_to_string lvl))
       :: ("event", Json.String event)
       :: fields)
  in
  Json.to_compact_string
    (if scrub then Scrub.null_mask Scrub.Log record else record)

let log t lvl event fields =
  match t with
  | None -> ()
  | Some s ->
      if severity lvl >= severity s.min_level then begin
        let l = line ~scrub:s.scrub lvl event fields in
        Mutex.lock emit_mutex;
        Fun.protect ~finally:(fun () -> Mutex.unlock emit_mutex) (fun () ->
            s.emit l)
      end

let debug t event fields = log t Debug event fields
let info t event fields = log t Info event fields
let warn t event fields = log t Warn event fields
let error t event fields = log t Error event fields
