open Cmdliner

(* Budget knobs reject non-positive values, and the replication
   threshold negative ones, at the parse layer, so both a flag and its
   environment default ([FPGAPART_JOBS=0]) fail with a proper Cmdliner
   error (naming the flag or variable) instead of surfacing later as
   Kway.Options.make's Invalid_argument. *)
let int_at_least lo ~what =
  let parse s =
    match Arg.conv_parser Arg.int s with
    | Ok n when n >= lo -> Ok n
    | Ok n -> Error (`Msg (Printf.sprintf "expected %s, got %d" what n))
    | Error _ as e -> e
  in
  Arg.conv ~docv:"N" (parse, Arg.conv_printer Arg.int)

let positive_int = int_at_least 1 ~what:"a positive integer"
let non_negative_int = int_at_least 0 ~what:"a non-negative integer"

let seed ?(default = 1) () =
  Arg.(
    value & opt int default
    & info [ "seed" ] ~docv:"N" ~doc:"Random seed.")

let runs ?(default = 5) ?(extra_names = []) () =
  Arg.(
    value & opt positive_int default
    & info ("runs" :: extra_names) ~docv:"N"
        ~doc:(Printf.sprintf "Multi-start runs (default %d)." default))

let replication_threshold () =
  Arg.(
    value
    & opt (some non_negative_int) None
    & info [ "replicate"; "T" ] ~docv:"T"
        ~doc:
          "Enable functional replication with threshold replication \
           potential $(docv) (0 = replicate any multi-output cell).")

let replication_of_threshold = function
  | None -> `None
  | Some t -> `Functional t

let stats_json () =
  Arg.(
    value
    & opt (some string) None
    & info [ "stats-json" ] ~docv:"FILE"
        ~doc:
          "Write engine telemetry to $(docv) as JSON: the options and \
           result summary plus per-pass F-M events, per-split \
           device-window attempts, refinement deltas, counters and \
           histograms (see README, 'Observability'). Its telemetry \
           holds no time: a span's duration is in $(b,--trace). Off by \
           default; partitioning runs with a no-op sink and records \
           nothing.")

let trace () =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write a wall-clock trace of the run to $(docv) as Chrome \
           trace-event JSON, viewable in Perfetto (ui.perfetto.dev) or \
           chrome://tracing. One complete event per span: pid is the \
           multi-start run index, tid the domain that executed it, and \
           args carry the span's GC deltas. Timestamps are wall-clock \
           and execution-dependent — the trace is never part of the \
           $(b,--stats-json) document.")

let jobs () =
  Arg.(
    value
    & opt positive_int 1
    & info [ "jobs"; "j" ] ~docv:"N"
        ~env:(Cmd.Env.info "FPGAPART_JOBS")
        ~doc:
          "Run the multi-start search on $(docv) OCaml domains. The \
           partition and the whole $(b,--stats-json) telemetry are \
           independent of $(docv) — only the result's wall_secs and \
           cpu_secs and the $(b,--trace) timestamps change. Defaults to \
           $(env), then 1.")

(* The objective flag parses straight to the objective value via
   Objective.of_name, so the CLI error lists the valid names and a typo
   can never reach the driver. *)
let objective_conv =
  let parse s =
    match Fpga.Objective.of_name s with
    | Ok o -> Ok o
    | Error msg -> Error (`Msg msg)
  in
  let print fmt (o : Fpga.Objective.t) =
    Format.pp_print_string fmt o.Fpga.Objective.name
  in
  Arg.conv ~docv:"NAME" (parse, print)

let objective () =
  Arg.(
    value
    & opt objective_conv Fpga.Objective.paper
    & info [ "objective" ] ~docv:"NAME"
        ~doc:
          (Printf.sprintf
             "Cost objective driving device choice and ranking: %s. \
              $(b,paper) (the default) is the paper's total-device-cost \
              model and reproduces the scalar driver bit for bit; \
              $(b,multi-personality) adds per-resource (FF/BRAM/DSP) \
              feasibility; $(b,chiplet) prices every cut signal as an \
              interposer crossing."
             (String.concat ", " Fpga.Objective.names)))

let multilevel () =
  let build enabled =
    if enabled then Core.Kway.Multilevel Core.Kway.Options.default_multilevel
    else Core.Kway.Flat
  in
  Term.(
    const build
    $ Arg.(
        value & flag
        & info [ "multilevel" ]
            ~doc:
              "Partition via the multilevel V-cycle: coarsen the netlist by \
               heavy-edge matching, run the k-way device-selection driver \
               on the coarsest graph, then uncoarsen level by level, \
               moving boundary cells greedily; with $(b,--replicate), one \
               F-M replication round follows at the finest level. The \
               V-cycle runs with the library's default knobs. Orders of \
               magnitude faster on large (100k+ cell) circuits; without \
               this flag the classic flat driver runs and output is \
               byte-identical to previous releases."))

let device_lib () =
  Arg.(
    value
    & opt (some string) None
    & info [ "device-lib" ] ~docv:"FILE"
        ~doc:
          "Load the device library from $(docv) (JSON: {\"devices\": \
           [...]}, each device either the scalar form {name, capacity, \
           terminals, price, util_low?, util_high?} or the vector form \
           {name, price, resources: {clb, ff, bram, dsp, io}, res_low?, \
           res_high?}; see README, 'Objectives & device libraries'). \
           Defaults to the built-in XC3000 family.")

let library_of_path = function
  | None -> Ok Fpga.Library.xc3000
  | Some path -> Fpga.Library.load path

(* The log-level flag parses straight to Obs.Log.level so a typo is a
   Cmdliner error listing the valid names, mirroring --objective. *)
let log_level_conv =
  let parse s =
    match Obs.Log.level_of_string s with
    | Some l -> Ok l
    | None ->
        Error
          (`Msg
             (Printf.sprintf
                "unknown log level %S (expected debug, info, warn or error)"
                s))
  in
  let print fmt l = Format.pp_print_string fmt (Obs.Log.level_to_string l) in
  Arg.conv ~docv:"LEVEL" (parse, print)

let log_level () =
  Arg.(
    value
    & opt log_level_conv Obs.Log.Info
    & info [ "log-level" ] ~docv:"LEVEL"
        ~env:(Cmd.Env.info "FPGAPART_LOG")
        ~doc:
          "Structured-log threshold: $(b,debug), $(b,info), $(b,warn) or \
           $(b,error). Job lifecycle events (enqueue, dequeue, cache hit, \
           done/failed/timeout/cancelled, drain) log at info; per-frame \
           accept/decode chatter at debug. Defaults to $(env), then info.")

let log_file () =
  Arg.(
    value
    & opt (some string) None
    & info [ "log-file" ] ~docv:"FILE"
        ~doc:
          "Append structured JSON-lines logs to $(docv) instead of \
           stderr. One JSON object per line: {\"ts_secs\", \"level\", \
           \"event\", ...fields}, with a per-job correlation id \
           (\"corr\") on every lifecycle line.")

let log_scrub () =
  Arg.(
    value & flag
    & info [ "log-scrub" ]
        ~doc:
          "Null the timestamp and every wall-derived field (*_secs, \
           *_ms, *_per_sec, *_util — the stats scrub contract) in log \
           lines, making the info-level lifecycle stream byte-identical \
           across repeated identical serialized workloads and across \
           $(b,--jobs) values.")

let socket () =
  Arg.(
    required
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH"
        ~env:(Cmd.Env.info "FPGAPART_SOCKET")
        ~doc:
          "Unix-domain socket path of the partitioning daemon ($(b,fpgapart \
           serve)). Defaults to $(env).")
