module J = Obs.Json

type format = Bench | Blif | Verilog

let format_to_string = function
  | Bench -> "bench"
  | Blif -> "blif"
  | Verilog -> "verilog"

let format_of_string = function
  | "bench" -> Some Bench
  | "blif" -> Some Blif
  | "verilog" -> Some Verilog
  | _ -> None

let parse_netlist format text =
  match format with
  | Bench -> Netlist.Bench_format.parse text
  | Blif -> Netlist.Blif.parse text
  | Verilog -> Netlist.Verilog.parse text

(* The submission envelope shared by [submit] and [submit-batch]: who is
   asking (the fair-queue tenant), how urgently (priority within the
   tenant's queue), and whether the fleet scheduler may race the job
   across idle workers (portfolio mode). Both the single-process daemon
   and the fleet queue jobs in the front end's per-tenant fair queue, so
   both honour the tenant and the priority; only [portfolio] is fleet-only,
   and a single-process daemon accepts and ignores it. *)
type envelope = { tenant : string; priority : int; portfolio : bool }

let default_envelope = { tenant = "default"; priority = 0; portfolio = false }

type batch_item = {
  b_name : string;
  b_format : format;
  b_netlist : string;
  b_options : Core.Kway.options;
}

type request =
  | Submit of {
      name : string;
      format : format;
      netlist : string;
      options : Core.Kway.options;
      envelope : envelope;
    }
  | Submit_batch of { items : batch_item list; envelope : envelope }
  | Resubmit of {
      name : string;
      base : [ `Job of int | `Digest of string ];
      delta : Netlist.Delta.t;
      options : Core.Kway.options option;
    }
  | Status of int
  | Result of { job : int; wait : bool }
  | Cancel of int
  | Stats
  | Fleet_stats
  | Metrics
  | Health
  | Shutdown

(* v3: the `submit-batch` and `fleet-stats` verbs, and the
   tenant/priority/portfolio submission envelope. v4: the options carry
   no search-budget keys, and ["strategy"] is the string "flat" or
   "multilevel" (see {!Experiments.Obs_report.options_to_json}). The gate
   below is strict — a v3 client sees `unsupported_version`, not its
   budget keys silently ignored. *)
let protocol_version = 4

let code_bad_request = "bad_request"
let code_unsupported_version = "unsupported_version"
let code_overloaded = "overloaded"
let code_not_found = "not_found"
let code_pending = "pending"
let code_infeasible = "infeasible"
let code_cancelled = "cancelled"
let code_timeout = "timeout"
let code_shutting_down = "shutting_down"
let code_worker_lost = "worker_lost"

let ok fields = J.Obj (("ok", J.Bool true) :: fields)

let error ~code msg =
  J.Obj
    [
      ("ok", J.Bool false);
      ("error", J.Obj [ ("code", J.String code); ("msg", J.String msg) ]);
    ]

let state_queued = "queued"
let state_running = "running"
let state_done = "done"
let state_failed = "failed"
let state_cancelled = "cancelled"

(* Delta wire encoding: {"ops": [{"op": ..., ...}]}. Gate kinds use the
   .bench spellings via Gate.to_string/of_string. *)
let op_to_json = function
  | Netlist.Delta.Add_cell { name; kind; fanins } ->
      J.Obj
        [
          ("op", J.String "add");
          ("name", J.String name);
          ("kind", J.String (Netlist.Gate.to_string kind));
          ("fanins", J.List (List.map (fun f -> J.String f) fanins));
        ]
  | Netlist.Delta.Remove_cell name ->
      J.Obj [ ("op", J.String "remove"); ("name", J.String name) ]
  | Netlist.Delta.Rewire { cell; pin; net } ->
      J.Obj
        [
          ("op", J.String "rewire");
          ("cell", J.String cell);
          ("pin", J.Int pin);
          ("net", J.String net);
        ]
  | Netlist.Delta.Set_output { net; output } ->
      J.Obj
        [
          ("op", J.String "set_output");
          ("net", J.String net);
          ("output", J.Bool output);
        ]

let delta_to_json (delta : Netlist.Delta.t) =
  J.Obj [ ("ops", J.List (List.map op_to_json delta)) ]

let ( let* ) = Result.bind

let op_of_json json =
  let str name =
    match Option.bind (J.member name json) J.to_str with
    | Some s -> Ok s
    | None -> Error (Printf.sprintf "delta op: missing or ill-typed %S" name)
  in
  let* op = str "op" in
  match op with
  | "add" ->
      let* name = str "name" in
      let* kind_s = str "kind" in
      let* kind =
        match Netlist.Gate.of_string kind_s with
        | Some k -> Ok k
        | None -> Error (Printf.sprintf "delta op: unknown gate kind %S" kind_s)
      in
      let* fanins =
        match J.member "fanins" json with
        | Some (J.List l) ->
            List.fold_left
              (fun acc f ->
                let* acc = acc in
                match J.to_str f with
                | Some s -> Ok (s :: acc)
                | None -> Error "delta op: ill-typed \"fanins\" element")
              (Ok []) l
            |> Result.map List.rev
        | _ -> Error "delta op: missing or ill-typed \"fanins\""
      in
      Ok (Netlist.Delta.Add_cell { name; kind; fanins })
  | "remove" ->
      let* name = str "name" in
      Ok (Netlist.Delta.Remove_cell name)
  | "rewire" ->
      let* cell = str "cell" in
      let* pin =
        match Option.bind (J.member "pin" json) J.to_int with
        | Some p -> Ok p
        | None -> Error "delta op: missing or ill-typed \"pin\""
      in
      let* net = str "net" in
      Ok (Netlist.Delta.Rewire { cell; pin; net })
  | "set_output" ->
      let* net = str "net" in
      let* output =
        match Option.bind (J.member "output" json) J.to_bool with
        | Some b -> Ok b
        | None -> Error "delta op: missing or ill-typed \"output\""
      in
      Ok (Netlist.Delta.Set_output { net; output })
  | op -> Error (Printf.sprintf "delta op: unknown op %S" op)

let delta_of_json json =
  match J.member "ops" json with
  | Some (J.List ops) ->
      List.fold_left
        (fun acc o ->
          let* acc = acc in
          let* op = op_of_json o in
          Ok (op :: acc))
        (Ok []) ops
      |> Result.map List.rev
  | _ -> Error "delta: missing or ill-typed \"ops\""

(* Envelope fields are serialised only when they differ from the
   defaults, so a default submit frame is byte-identical to what a plain
   (pre-fleet) client would send modulo the version field. *)
let envelope_fields e =
  (if String.equal e.tenant default_envelope.tenant then []
   else [ ("tenant", J.String e.tenant) ])
  @ (if e.priority = default_envelope.priority then []
     else [ ("priority", J.Int e.priority) ])
  @ if e.portfolio = default_envelope.portfolio then []
    else [ ("portfolio", J.Bool e.portfolio) ]

let batch_item_to_json { b_name; b_format; b_netlist; b_options } =
  J.Obj
    [
      ("name", J.String b_name);
      ("format", J.String (format_to_string b_format));
      ("netlist", J.String b_netlist);
      ("options", Experiments.Obs_report.options_to_json b_options);
    ]

(* The options wire encoding is the stats-schema encoding, whose codec
   and field set Obs_report owns, so a client can lift the "options"
   object straight out of a stats document and resubmit with it. *)
let request_to_json = function
  | Submit { name; format; netlist; options; envelope } ->
      J.Obj
        ([
           ("v", J.Int protocol_version);
           ("verb", J.String "submit");
           ("name", J.String name);
           ("format", J.String (format_to_string format));
           ("netlist", J.String netlist);
           ("options", Experiments.Obs_report.options_to_json options);
         ]
        @ envelope_fields envelope)
  | Submit_batch { items; envelope } ->
      J.Obj
        ([
           ("v", J.Int protocol_version);
           ("verb", J.String "submit-batch");
           ("items", J.List (List.map batch_item_to_json items));
         ]
        @ envelope_fields envelope)
  | Resubmit { name; base; delta; options } ->
      let base_field =
        match base with
        | `Job job -> ("base_job", J.Int job)
        | `Digest d -> ("base_digest", J.String d)
      in
      let opt_fields =
        match options with
        | None -> []
        | Some o -> [ ("options", Experiments.Obs_report.options_to_json o) ]
      in
      J.Obj
        ([
           ("v", J.Int protocol_version);
           ("verb", J.String "resubmit");
           ("name", J.String name);
           base_field;
           ("delta", delta_to_json delta);
         ]
        @ opt_fields)
  | Status job ->
      J.Obj [ ("v", J.Int protocol_version); ("verb", J.String "status"); ("job", J.Int job) ]
  | Result { job; wait } ->
      J.Obj
        [
          ("v", J.Int protocol_version);
          ("verb", J.String "result");
          ("job", J.Int job);
          ("wait", J.Bool wait);
        ]
  | Cancel job ->
      J.Obj [ ("v", J.Int protocol_version); ("verb", J.String "cancel"); ("job", J.Int job) ]
  | Stats -> J.Obj [ ("v", J.Int protocol_version); ("verb", J.String "stats") ]
  | Fleet_stats ->
      J.Obj [ ("v", J.Int protocol_version); ("verb", J.String "fleet-stats") ]
  | Metrics ->
      J.Obj [ ("v", J.Int protocol_version); ("verb", J.String "metrics") ]
  | Health ->
      J.Obj [ ("v", J.Int protocol_version); ("verb", J.String "health") ]
  | Shutdown ->
      J.Obj [ ("v", J.Int protocol_version); ("verb", J.String "shutdown") ]

(* The version gate runs before any verb dispatch: a frame without a
   recognised ["v"] gets the typed [unsupported_version] error naming
   what this server speaks, so an old client (or a future one) fails
   with a diagnosable code instead of a field-by-field "bad_request"
   whose real cause is a vocabulary mismatch. *)
let rec request_of_json json =
  match J.member "v" json with
  | None ->
      Error
        ( code_unsupported_version,
          Printf.sprintf
            "missing protocol version field \"v\" (this server speaks v%d)"
            protocol_version )
  | Some v -> (
      match J.to_int v with
      | Some n when n = protocol_version ->
          Result.map_error
            (fun msg -> (code_bad_request, msg))
            (decode_request json)
      | Some n ->
          Error
            ( code_unsupported_version,
              Printf.sprintf
                "unsupported protocol version %d (this server speaks v%d)" n
                protocol_version )
      | None ->
          Error
            ( code_unsupported_version,
              Printf.sprintf
                "ill-typed protocol version field \"v\" (this server speaks \
                 v%d)"
                protocol_version ))

and envelope_of_json json =
  let* tenant =
    J.opt_field "tenant" J.to_str ~default:default_envelope.tenant json
  in
  let* () =
    if not (Fair_queue.valid_tenant tenant) then
      Error "field \"tenant\" must be 1..64 characters"
    else Ok ()
  in
  let* priority =
    J.opt_field "priority" J.to_int ~default:default_envelope.priority json
  in
  let* portfolio =
    J.opt_field "portfolio" J.to_bool ~default:default_envelope.portfolio json
  in
  Ok { tenant; priority; portfolio }

and submit_body_of_json json =
  let* name = J.field "name" J.to_str json in
  let* format_s = J.field "format" J.to_str json in
  let* format =
    match format_of_string format_s with
    | Some f -> Ok f
    | None -> Error (Printf.sprintf "unknown netlist format %S" format_s)
  in
  let* netlist = J.field "netlist" J.to_str json in
  let* options =
    match J.member "options" json with
    | None -> Ok Core.Kway.Options.default
    | Some o -> Experiments.Obs_report.options_of_json o
  in
  Ok { b_name = name; b_format = format; b_netlist = netlist; b_options = options }

and decode_request json =
  let* verb = J.field "verb" J.to_str json in
  match verb with
  | "submit" ->
      let* { b_name; b_format; b_netlist; b_options } =
        submit_body_of_json json
      in
      let* envelope = envelope_of_json json in
      Ok
        (Submit
           {
             name = b_name;
             format = b_format;
             netlist = b_netlist;
             options = b_options;
             envelope;
           })
  | "submit-batch" ->
      let* envelope = envelope_of_json json in
      let* items =
        match J.member "items" json with
        | Some (J.List l) ->
            let n = List.length l in
            if n = 0 then Error "field \"items\" must be non-empty"
            else if n > 1024 then
              Error
                (Printf.sprintf
                   "field \"items\" carries %d items (the limit is 1024)" n)
            else
              List.fold_left
                (fun acc item ->
                  let* acc = acc in
                  let* item = submit_body_of_json item in
                  Ok (item :: acc))
                (Ok []) l
              |> Result.map List.rev
        | _ -> Error "missing or ill-typed field \"items\""
      in
      Ok (Submit_batch { items; envelope })
  | "resubmit" ->
      let* name = J.field "name" J.to_str json in
      let* base =
        match (J.member "base_job" json, J.member "base_digest" json) with
        | Some j, None -> (
            match J.to_int j with
            | Some job -> Ok (`Job job)
            | None -> Error "ill-typed field \"base_job\"")
        | None, Some d -> (
            match J.to_str d with
            | Some dg -> Ok (`Digest dg)
            | None -> Error "ill-typed field \"base_digest\"")
        | Some _, Some _ ->
            Error "resubmit takes \"base_job\" or \"base_digest\", not both"
        | None, None ->
            Error "resubmit needs a \"base_job\" or \"base_digest\" field"
      in
      let* delta =
        match J.member "delta" json with
        | Some d -> delta_of_json d
        | None -> Error "missing field \"delta\""
      in
      let* options =
        match J.member "options" json with
        | None -> Ok None
        | Some o ->
            Result.map Option.some (Experiments.Obs_report.options_of_json o)
      in
      Ok (Resubmit { name; base; delta; options })
  | "status" ->
      let* job = J.field "job" J.to_int json in
      Ok (Status job)
  | "result" ->
      let* job = J.field "job" J.to_int json in
      let* wait = J.opt_field "wait" J.to_bool ~default:false json in
      Ok (Result { job; wait })
  | "cancel" ->
      let* job = J.field "job" J.to_int json in
      Ok (Cancel job)
  | "stats" -> Ok Stats
  | "fleet-stats" -> Ok Fleet_stats
  | "metrics" -> Ok Metrics
  | "health" -> Ok Health
  | "shutdown" -> Ok Shutdown
  | verb -> Error (Printf.sprintf "unknown verb %S" verb)
