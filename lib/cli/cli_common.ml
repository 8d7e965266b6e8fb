open Cmdliner

(* Budget knobs reject non-positive values at the parse layer, so both a
   flag and its environment default ([FPGAPART_JOBS=0]) fail with a
   proper Cmdliner error (naming the flag or variable) instead of
   surfacing later as Kway.Options.make's Invalid_argument. *)
let positive_int =
  let parse s =
    match Arg.conv_parser Arg.int s with
    | Ok n when n > 0 -> Ok n
    | Ok n -> Error (`Msg (Printf.sprintf "expected a positive integer, got %d" n))
    | Error _ as e -> e
  in
  Arg.conv ~docv:"N" (parse, Arg.conv_printer Arg.int)

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
    & opt (some int) None
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
           span timers (see README, 'Observability'). Off by default; \
           partitioning runs with a no-op sink and records nothing.")

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
           partition, the telemetry event stream and every counter are \
           independent of $(docv) — only wall-clock time and the *_secs \
           timers change. Defaults to $(env), then 1.")

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

(* The multilevel flags assemble straight into a Kway.strategy so both
   frontends share the validation (ratio range via a dedicated conv, the
   counts via positive_int) and the default knobs come from one place
   (Kway.Options.default_multilevel). The tuning flags are accepted but
   inert without --multilevel, like --replicate's threshold shape. *)
let ratio_conv =
  let parse s =
    match Arg.conv_parser Arg.float s with
    | Ok r when r > 0.0 && r < 1.0 -> Ok r
    | Ok r ->
        Error
          (`Msg (Printf.sprintf "expected a ratio in (0, 1), got %g" r))
    | Error _ as e -> e
  in
  Arg.conv ~docv:"R" (parse, Arg.conv_printer Arg.float)

let multilevel () =
  let default = Core.Kway.Options.default_multilevel in
  let flag =
    Arg.(
      value & flag
      & info [ "multilevel" ]
          ~doc:
            "Partition via the multilevel V-cycle: coarsen the netlist by \
             heavy-edge matching, run the k-way device-selection driver \
             on the coarsest graph, then uncoarsen level by level with \
             F-M refinement restricted to boundary cells. Orders of \
             magnitude faster on large (100k+ cell) circuits; without \
             this flag the classic flat driver runs and output is \
             byte-identical to previous releases.")
  in
  let max_levels =
    Arg.(
      value
      & opt positive_int default.Core.Kway.max_levels
      & info [ "ml-max-levels" ] ~docv:"N"
          ~doc:
            (Printf.sprintf
               "Coarsening depth cap for $(b,--multilevel) (default %d)."
               default.Core.Kway.max_levels))
  in
  let coarsen_ratio =
    Arg.(
      value
      & opt ratio_conv default.Core.Kway.coarsen_ratio
      & info [ "ml-coarsen-ratio" ] ~docv:"R"
          ~doc:
            (Printf.sprintf
               "Coarsening stall threshold in (0, 1) for \
                $(b,--multilevel): stop when a matching round keeps at \
                least $(docv) of the cells (default %g)."
               default.Core.Kway.coarsen_ratio))
  in
  let refine_passes =
    Arg.(
      value
      & opt positive_int default.Core.Kway.refine_passes
      & info [ "ml-refine-passes" ] ~docv:"N"
          ~doc:
            (Printf.sprintf
               "Boundary-restricted refinement sweeps per uncoarsening \
                level for $(b,--multilevel) (default %d)."
               default.Core.Kway.refine_passes))
  in
  let build enabled max_levels coarsen_ratio refine_passes =
    if enabled then
      Core.Kway.Multilevel { Core.Kway.max_levels; coarsen_ratio; refine_passes }
    else Core.Kway.Flat
  in
  Term.(const build $ flag $ max_levels $ coarsen_ratio $ refine_passes)

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
