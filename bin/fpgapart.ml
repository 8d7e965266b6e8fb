(* fpgapart: command-line front end for the partitioning library.

   Subcommands:
     stats      circuit statistics before and after technology mapping
     map        write the mapped-CLB view of a circuit
     bipartition   equal-halves min-cut bipartition (Table III style)
     partition  k-way partitioning into the XC3000 library (the paper's
                main flow), with optional functional replication
     psi        replication-potential distribution (Figure 3 style)

   Circuits come from an ISCAS .bench file (--bench FILE) or from a named
   built-in benchmark (--circuit NAME, see `fpgapart list`). *)

open Cmdliner

let ( let* ) = Result.bind

(* Netlist format, inferred from a file extension. *)
let format_of_path path : (Service.Protocol.format, string) result =
  match Filename.extension path with
  | ".bench" -> Ok Bench
  | ".blif" -> Ok Blif
  | ".v" | ".verilog" -> Ok Verilog
  | ext -> Error ("cannot infer netlist format from extension '" ^ ext ^ "'")

let read_file path =
  try Ok (In_channel.with_open_bin path In_channel.input_all)
  with Sys_error msg -> Error msg

let read_netlist path =
  let* format = format_of_path path in
  let* text = read_file path in
  Service.Protocol.parse_netlist format text

(* An output path that cannot be written is a usage error: report it and
   exit 1 rather than escaping as an uncaught Sys_error. *)
let writing what f =
  try f ()
  with Sys_error msg ->
    prerr_endline ("fpgapart: cannot write " ^ what ^ ": " ^ msg);
    exit 1

let write_netlist path c =
  match format_of_path path with
  | Error _ as e -> e
  | Ok (format : Service.Protocol.format) ->
      let write =
        match format with
        | Bench -> Netlist.Bench_format.write_file
        | Blif -> Netlist.Blif.write_file
        | Verilog -> Netlist.Verilog.write_file
      in
      Ok (writing "netlist" (fun () -> write path c))

(* ------------------------------------------------------------------ *)
(* Circuit sources                                                    *)
(* ------------------------------------------------------------------ *)

let load_circuit bench_file builtin =
  match (bench_file, builtin) with
  | Some path, None -> (
      match read_netlist path with
      | Ok c -> Ok c
      | Error msg -> Error (path ^ ": " ^ msg))
  | None, Some name -> (
      match Experiments.Suite.find name with
      | Some e -> Ok (Lazy.force e.Experiments.Suite.circuit)
      | None -> Error ("unknown built-in circuit: " ^ name))
  | None, None -> Error "need --bench FILE or --circuit NAME"
  | Some _, Some _ -> Error "--bench and --circuit are mutually exclusive"

(* Built-in circuits map through their suite entry, which carries
   per-entry mapper options (the scale circuits disable disjoint CLB
   pairing) and memoises the result; file-loaded netlists use the default
   mapper. *)
let load_circuit_mapped bench_file builtin =
  match (bench_file, builtin) with
  | None, Some name -> (
      match Experiments.Suite.find name with
      | Some e ->
          Ok
            ( Lazy.force e.Experiments.Suite.circuit,
              Lazy.force e.Experiments.Suite.mapped )
      | None -> Error ("unknown built-in circuit: " ^ name))
  | _ ->
      Result.map
        (fun c -> (c, Techmap.Mapper.map c))
        (load_circuit bench_file builtin)

let bench_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "bench"; "netlist" ] ~docv:"FILE"
        ~doc:
          "Read a netlist file; the format is inferred from the extension \
           (.bench, .blif, .v).")

let circuit_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "circuit" ] ~docv:"NAME"
        ~doc:"Use a built-in benchmark circuit (see $(b,fpgapart list).)")

(* Knobs shared with the bench harness live in Cli_common so the two
   frontends cannot drift. *)
let seed_arg = Cli_common.seed ()
let threshold_arg = Cli_common.replication_threshold ()
let runs_arg = Cli_common.runs ()
let stats_json_arg = Cli_common.stats_json ()
let trace_arg = Cli_common.trace ()
let jobs_arg = Cli_common.jobs ()
let objective_arg = Cli_common.objective ()
let device_lib_arg = Cli_common.device_lib ()
let multilevel_arg = Cli_common.multilevel ()

let or_die = function
  | Ok v -> v
  | Error msg ->
      prerr_endline ("fpgapart: " ^ msg);
      exit 1

(* ------------------------------------------------------------------ *)
(* Subcommands                                                        *)
(* ------------------------------------------------------------------ *)

let list_cmd =
  let doc = "List built-in benchmark circuits." in
  let run () =
    List.iter
      (fun e ->
        Format.printf "%-8s  %s@." e.Experiments.Suite.name
          e.Experiments.Suite.description)
      (Experiments.Suite.all ())
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

let stats_cmd =
  let doc = "Circuit statistics before and after XC3000 mapping." in
  let run bench builtin =
    let c, m = or_die (load_circuit_mapped bench builtin) in
    Format.printf "%a@." Netlist.Stats.pp (Netlist.Stats.compute c);
    Format.printf "after mapping: %a@." Techmap.Mapped.pp_stats
      (Techmap.Mapped.stats m)
  in
  Cmd.v (Cmd.info "stats" ~doc) Term.(const run $ bench_arg $ circuit_arg)

let map_cmd =
  let doc = "Map a circuit into XC3000 CLBs and describe every CLB." in
  let run bench builtin =
    let _, m = or_die (load_circuit_mapped bench builtin) in
    Format.printf "%a@." Techmap.Mapped.pp_stats (Techmap.Mapped.stats m);
    Array.iter
      (fun clb ->
        let outs =
          Array.to_list clb.Techmap.Mapped.outputs
          |> List.map (fun o ->
                 Printf.sprintf "%s%s"
                   m.Techmap.Mapped.net_names.(o.Techmap.Mapped.net)
                   (if o.Techmap.Mapped.registered then " (reg)" else ""))
          |> String.concat ", "
        in
        let ins =
          Array.to_list clb.Techmap.Mapped.inputs
          |> List.map (fun n -> m.Techmap.Mapped.net_names.(n))
          |> String.concat ", "
        in
        Format.printf "CLB %-24s in: %-40s out: %s@." clb.Techmap.Mapped.name
          ins outs)
      m.Techmap.Mapped.clbs
  in
  Cmd.v (Cmd.info "map" ~doc) Term.(const run $ bench_arg $ circuit_arg)

let psi_cmd =
  let doc = "Replication-potential (psi) distribution of the mapped cells." in
  let run bench builtin =
    let _, m = or_die (load_circuit_mapped bench builtin) in
    let h = Techmap.Mapper.to_hypergraph m in
    Format.printf "%a@." Core.Replication_potential.pp_distribution
      (Core.Replication_potential.distribution h)
  in
  Cmd.v (Cmd.info "psi" ~doc) Term.(const run $ bench_arg $ circuit_arg)

let bipartition_cmd =
  let doc =
    "Equal-halves min-cut bipartition, optionally with functional \
     replication (the paper's first experiment)."
  in
  let run bench builtin seed threshold runs =
    let _, m = or_die (load_circuit_mapped bench builtin) in
    let h = Techmap.Mapper.to_hypergraph m in
    let total = Hypergraph.total_area h in
    let replication = Cli_common.replication_of_threshold threshold in
    let cfg = Core.Fm.balance_config ~replication ~total_area:total () in
    match Core.Fm.multi_start ~runs ~seed cfg h with
    | None, _ -> prerr_endline "no bipartition found"
    | Some (cut, st), _ ->
        Format.printf "cut: %d nets (best of %d runs)@." cut runs;
        Format.printf "side A: %d CLBs, side B: %d CLBs, %d replicated cells@."
          (Partition_state.area st Partition_state.A)
          (Partition_state.area st Partition_state.B)
          (Partition_state.num_replicated st)
  in
  Cmd.v
    (Cmd.info "bipartition" ~doc)
    Term.(
      const run $ bench_arg $ circuit_arg $ seed_arg $ threshold_arg $ runs_arg)

let partition_cmd =
  let doc =
    "Partition a circuit into a heterogeneous XC3000 set minimising total \
     device cost and interconnect (the paper's main flow)."
  in
  let run bench builtin seed threshold runs jobs stats_json trace objective
      device_lib strategy =
    let library = or_die (Cli_common.library_of_path device_lib) in
    let _, m = or_die (load_circuit_mapped bench builtin) in
    let name =
      match (builtin, bench) with
      | Some n, _ -> n
      | None, Some path -> Filename.remove_extension (Filename.basename path)
      | None, None -> "circuit"
    in
    let h = Techmap.Mapper.to_hypergraph m in
    let replication = Cli_common.replication_of_threshold threshold in
    (* SIGINT/SIGTERM raise a flag the engine polls between passes: the
       run aborts at the next boundary and the artifacts below are still
       flushed (marked "interrupted") instead of dying mid-write. *)
    let should_stop = Service.Signals.install_stop_flag () in
    let options =
      Core.Kway.Options.make ~runs ~seed ~replication ~jobs ~should_stop
        ~objective ~strategy ()
    in
    (* One sink serves both artifacts; tracing is enabled only when a trace
       file was requested, so --stats-json alone pays no wall-clock or GC
       sampling cost. *)
    let obs =
      match (stats_json, trace) with
      | None, None -> Obs.noop
      | _ -> Obs.create ~trace:(trace <> None) ()
    in
    let flush_trace () =
      match trace with
      | None -> ()
      | Some path ->
          writing "trace" (fun () -> Obs.Trace.write ~path obs);
          Format.printf "trace: %s (open in ui.perfetto.dev)@." path
    in
    match Core.Kway.partition ~obs ~options ~library h with
    | Error msg when String.equal msg Core.Kway.cancelled ->
        (match stats_json with
        | None -> ()
        | Some path ->
            (try
               Experiments.Obs_report.write ~path
                 (Experiments.Obs_report.doc ~name ~options ~result:None
                    ~snapshot:(Obs.snapshot obs))
             with Sys_error msg ->
               prerr_endline ("fpgapart: cannot write stats: " ^ msg));
            Format.printf "telemetry (partial): %s@." path);
        flush_trace ();
        prerr_endline "fpgapart: interrupted";
        exit 130
    | Error msg ->
        prerr_endline ("fpgapart: " ^ msg);
        exit 1
    | Ok r ->
        (match Core.Kway.check ~objective:options.Core.Kway.objective h r with
        | Ok () -> ()
        | Error msg ->
            prerr_endline ("fpgapart: internal: unsound partition: " ^ msg);
            exit 2);
        (match stats_json with
        | None -> ()
        | Some path ->
            writing "stats" (fun () ->
                Experiments.Obs_report.write ~path
                  (Experiments.Obs_report.doc ~name ~options ~result:(Some r)
                     ~snapshot:(Obs.snapshot obs)));
            Format.printf "telemetry: %s@." path);
        flush_trace ();
        if Obs.enabled obs then
          Format.printf "%t@."
            (Experiments.Obs_report.pp_convergence
               ~snapshot:(Obs.snapshot obs) ~trace:(Obs.Trace.spans obs)
               ~wall_secs:r.Core.Kway.wall_secs);
        Format.printf "%a@." Core.Kway.pp_result r
  in
  Cmd.v
    (Cmd.info "partition" ~doc)
    Term.(
      const run $ bench_arg $ circuit_arg $ seed_arg $ threshold_arg $ runs_arg
      $ jobs_arg $ stats_json_arg $ trace_arg $ objective_arg $ device_lib_arg
      $ multilevel_arg)


let convert_cmd =
  let doc =
    "Convert a netlist between the supported formats (.bench, .blif, .v); \
     the formats are inferred from the file extensions."
  in
  let input_pos =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"INPUT")
  in
  let output_pos =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"OUTPUT")
  in
  let opt_flag =
    Arg.(
      value & flag
      & info [ "optimize" ]
          ~doc:"Run the clean-up transforms (constants, buffers, structural \
                hashing, dead sweep) before writing.")
  in
  let run input output optimize =
    let c = or_die (Result.map_error (fun m -> input ^ ": " ^ m) (read_netlist input)) in
    let c = if optimize then Netlist.Transform.optimize c else c in
    or_die (write_netlist output c);
    Format.printf "%a -> %s@." Netlist.Circuit.pp_summary c output
  in
  Cmd.v (Cmd.info "convert" ~doc)
    Term.(const run $ input_pos $ output_pos $ opt_flag)

let generate_cmd =
  let doc = "Write a built-in benchmark circuit to a netlist file." in
  let circuit_pos =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"CIRCUIT")
  in
  let output_pos =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"OUTPUT")
  in
  let run name output =
    match Experiments.Suite.find name with
    | None ->
        prerr_endline ("fpgapart: unknown circuit " ^ name ^ " (see 'fpgapart list')");
        exit 1
    | Some e ->
        let c = Lazy.force e.Experiments.Suite.circuit in
        or_die (write_netlist output c);
        Format.printf "%a -> %s@." Netlist.Circuit.pp_summary c output
  in
  Cmd.v (Cmd.info "generate" ~doc) Term.(const run $ circuit_pos $ output_pos)

let optimize_cmd =
  let doc = "Report the effect of the netlist clean-up transforms." in
  let run bench builtin =
    let c = or_die (load_circuit bench builtin) in
    let c' = Netlist.Transform.optimize c in
    Format.printf "before: %a@.after:  %a@." Netlist.Circuit.pp_summary c
      Netlist.Circuit.pp_summary c'
  in
  Cmd.v (Cmd.info "optimize" ~doc) Term.(const run $ bench_arg $ circuit_arg)

let timing_cmd =
  let doc =
    "Partition a circuit and report the partition-aware static critical \
     path, with and without functional replication."
  in
  let run bench builtin seed threshold runs jobs =
    let _, m = or_die (load_circuit_mapped bench builtin) in
    let h = Techmap.Mapper.to_hypergraph m in
    let analyze label replication =
      let options = Core.Kway.Options.make ~runs ~seed ~replication ~jobs () in
      match Core.Kway.partition ~options ~library:Fpga.Library.xc3000 h with
      | Error msg -> Format.printf "%-26s: failed (%s)@." label msg
      | Ok r ->
          let report = Experiments.Timing_eval.of_result m r in
          Format.printf "%-26s: delay %6.1f, %2d device hops (k=%d, $%.0f)@."
            label report.Techmap.Timing.critical_delay
            report.Techmap.Timing.critical_crossings
            r.Core.Kway.summary.Fpga.Cost.num_partitions
            r.Core.Kway.summary.Fpga.Cost.total_cost
    in
    analyze "baseline" `None;
    let t = Option.value threshold ~default:1 in
    analyze (Printf.sprintf "functional replication T=%d" t) (`Functional t)
  in
  Cmd.v (Cmd.info "timing" ~doc)
    Term.(
      const run $ bench_arg $ circuit_arg $ seed_arg $ threshold_arg $ runs_arg
      $ jobs_arg)

(* ------------------------------------------------------------------ *)
(* Service: daemon and clients                                        *)
(* ------------------------------------------------------------------ *)

let socket_arg = Cli_common.socket ()

(* A round trip's reply: protocol-level errors become exit-1 messages
   carrying the typed error code. *)
let checked = function
  | Error msg -> Error msg
  | Ok reply -> (
      match Service.Client.ok_or_error reply with
      | Ok reply -> Ok reply
      | Error (code, msg) -> Error (Printf.sprintf "%s [%s]" msg code))

(* One RPC round trip on a fresh connection. *)
let svc_rpc socket req = checked (Service.Client.rpc ~socket req)

let malformed what =
  prerr_endline ("fpgapart: malformed reply (no " ^ what ^ ")");
  exit 1

(* Print a reply's [member] as JSON on stdout. *)
let print_member reply member =
  match Obs.Json.member member reply with
  | Some doc -> print_endline (Obs.Json.to_string doc)
  | None -> malformed member

(* A submission's reply: a cache hit prints its result, [no_wait] prints
   the bare job id on stdout (so scripts can capture it), and otherwise
   the call waits for the result over [rpc]. *)
let await_job ~rpc ~no_wait reply =
  let job =
    match Option.bind (Obs.Json.member "job" reply) Obs.Json.to_int with
    | Some id -> id
    | None -> malformed "job id"
  in
  let flag f =
    Option.value ~default:false
      (Option.bind (Obs.Json.member f reply) Obs.Json.to_bool)
  in
  (* Only a resubmit's reply carries the flag. *)
  if flag "cold_fallback" then
    Format.eprintf "job %d: base context evicted; running cold@." job;
  if flag "cached" then (
    Format.eprintf "job %d: cache hit@." job;
    print_member reply "result")
  else if no_wait then (
    Format.eprintf "job %d queued@." job;
    Format.printf "%d@." job)
  else (
    Format.eprintf "job %d queued; waiting@." job;
    print_member
      (or_die (rpc (Service.Protocol.Result { job; wait = true })))
      "result")

let serve_cmd =
  let doc =
    "Run the partitioning daemon: accept jobs over a Unix-domain socket, \
     execute them in FIFO order, cache results by content digest (see \
     README, 'Service'). SIGINT/SIGTERM or the shutdown verb drain the \
     queue and exit."
  in
  let queue_cap_arg =
    Arg.(
      value & opt int 16
      & info [ "queue-cap" ] ~docv:"N"
          ~doc:
            "Bound on each tenant's queued (not yet running) jobs; a \
             submission past it is refused with the $(b,overloaded) \
             error.")
  in
  let cache_cap_arg =
    Arg.(
      value & opt int 64
      & info [ "cache-cap" ] ~docv:"N"
          ~doc:"Result documents kept in the LRU cache.")
  in
  let timeout_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "timeout" ] ~docv:"SECS"
          ~doc:
            "Per-job wall-clock budget; a job past it is stopped \
             cooperatively and fails with the $(b,timeout) error code.")
  in
  let workers_arg =
    Arg.(
      value & opt int 0
      & info [ "workers" ] ~docv:"N"
          ~doc:
            "Run a fleet: a scheduler on the public socket fanning jobs out \
             to $(docv) worker processes (each a full daemon on a private \
             socket). 0 (the default) keeps the single-process daemon. \
             Both take every other setting, queue jobs in the same \
             weighted per-tenant fair queue and write the same \
             $(b,--trace); portfolio racing and $(b,--cache-dir) need a \
             fleet.")
  in
  let cache_dir_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "cache-dir" ] ~docv:"DIR"
          ~doc:
            "Fleet only: persist results to an append-only file in \
             $(docv) and reload them on startup, so cache hits (and their \
             byte-identical replies) survive restarts.")
  in
  let tenant_weight_arg =
    Arg.(
      value
      & opt_all (pair ~sep:'=' string int) []
      & info [ "tenant-weight" ] ~docv:"TENANT=W"
          ~doc:
            "Weighted fair-share for a tenant (repeatable). A tenant's \
             turn serves up to W jobs before rotating; unlisted tenants \
             weigh 1. TENANT is 1-64 characters, weighted once, and W is \
             at least 1.")
  in
  let log_level_arg = Cli_common.log_level () in
  let log_file_arg = Cli_common.log_file () in
  let log_scrub_arg = Cli_common.log_scrub () in
  let trace_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Write a per-job lifecycle trace to $(docv) at shutdown as \
             Chrome trace-event JSON (Perfetto-loadable): one track per \
             job id with its decode, canonicalise, queue_wait and \
             partition spans, and the single-process daemon's \
             encode_reply span (a fleet's workers encode the reply \
             untraced).")
  in
  let run socket queue_cap cache_cap timeout jobs workers cache_dir
      tenant_weights log_level log_file log_scrub trace_path =
    if queue_cap <= 0 || cache_cap <= 0 then (
      prerr_endline "fpgapart: --queue-cap and --cache-cap must be positive";
      exit 1);
    if workers < 0 then (
      prerr_endline "fpgapart: --workers must be >= 0";
      exit 1);
    if workers = 0 && cache_dir <> None then (
      prerr_endline "fpgapart: --cache-dir needs a fleet (--workers N)";
      exit 1);
    Result.iter_error
      (fun msg ->
        prerr_endline ("fpgapart: --tenant-weight: " ^ msg);
        exit 1)
      (Service.Fair_queue.check_weights tenant_weights);
    let stop = Service.Signals.install_stop_flag () in
    (* The log channel outlives Server.run (the final server.stopped line
       lands after the drain), so it is closed on the way out, not
       per-request. *)
    let log_oc =
      match log_file with
      | None -> None
      | Some path ->
          Some
            (writing "log" (fun () ->
                 open_out_gen [ Open_append; Open_creat ] 0o644 path))
    in
    let log =
      Obs.Log.to_channel ~level:log_level ~scrub:log_scrub
        (Option.value log_oc ~default:stderr)
    in
    let service =
      {
        Service.Front.socket_path = socket;
        queue_cap;
        cache_cap;
        tenant_weights;
        timeout;
        jobs;
        log;
        trace_path;
      }
    in
    let outcome =
      if workers = 0 then
        let on_ready () =
          Format.printf
            "fpgapart: listening on %s (queue %d, cache %d, jobs %d)@." socket
            queue_cap cache_cap jobs
        in
        Service.Server.run ~on_ready ~external_stop:stop service
      else
        let on_ready () =
          Format.printf
            "fpgapart: fleet listening on %s (%d workers, tenant queue %d, \
             cache %d%s)@."
            socket workers queue_cap cache_cap
            (match cache_dir with
            | Some d -> Printf.sprintf ", disk %s" d
            | None -> "")
        in
        Fleet.Scheduler.run ~on_ready ~external_stop:stop
          {
            Fleet.Scheduler.service;
            workers;
            worker_exe = Sys.executable_name;
            cache_dir;
          }
    in
    Option.iter close_out log_oc;
    or_die outcome;
    Format.printf "fpgapart: daemon stopped@."
  in
  Cmd.v
    (Cmd.info "serve" ~doc)
    Term.(
      const run $ socket_arg $ queue_cap_arg $ cache_cap_arg $ timeout_arg
      $ jobs_arg $ workers_arg $ cache_dir_arg $ tenant_weight_arg
      $ log_level_arg $ log_file_arg $ log_scrub_arg $ trace_arg)

let no_wait_arg =
  Arg.(
    value & flag
    & info [ "no-wait" ]
        ~doc:
          "Print the bare job id on stdout and return instead of waiting \
           for the result.")

let submit_cmd =
  let doc =
    "Submit a circuit to a running daemon ($(b,fpgapart serve)) and, by \
     default, wait for the result document (printed to stdout as JSON; \
     status goes to stderr, so stdout is byte-comparable across \
     submissions)."
  in
  (* The daemon wants netlist text: a file is passed through verbatim, a
     built-in circuit is rendered to .bench. *)
  let load_netlist_text bench builtin =
    match (bench, builtin) with
    | Some path, None ->
        let* fmt = format_of_path path in
        let* text = read_file path in
        Ok (Filename.remove_extension (Filename.basename path), fmt, text)
    | None, Some name -> (
        match Experiments.Suite.find name with
        | Some e ->
            Ok
              ( name,
                Service.Protocol.Bench,
                Netlist.Bench_format.to_string
                  (Lazy.force e.Experiments.Suite.circuit) )
        | None -> Error ("unknown built-in circuit: " ^ name))
    | None, None -> Error "need --bench FILE or --circuit NAME"
    | Some _, Some _ -> Error "--bench and --circuit are mutually exclusive"
  in
  let tenant_arg =
    Arg.(
      value & opt string "default"
      & info [ "tenant" ] ~docv:"ID"
          ~doc:
            "Fair-queue tenant id (1-64 chars); the daemon and a fleet \
             ($(b,serve --workers)) share queue capacity fairly across \
             tenants.")
  in
  let priority_arg =
    Arg.(
      value & opt int 0
      & info [ "priority" ] ~docv:"N"
          ~doc:"Higher-priority jobs dequeue first within the tenant.")
  in
  let portfolio_arg =
    Arg.(
      value & flag
      & info [ "portfolio" ]
          ~doc:
            "Ask a fleet scheduler to race the job across idle workers \
             with derived seeds; every leg runs to the end and the \
             cheapest answered leg wins.")
  in
  let retries_arg =
    Arg.(
      value & opt int 0
      & info [ "retries" ] ~docv:"N"
          ~doc:
            "Retry up to $(docv) times, with jittered exponential \
             backoff, when the daemon refuses the connection or replies \
             $(b,overloaded) (default 0: fail fast).")
  in
  let run socket bench builtin seed threshold runs no_wait tenant priority
      portfolio retries strategy =
    let name, format, netlist = or_die (load_netlist_text bench builtin) in
    let replication = Cli_common.replication_of_threshold threshold in
    let options =
      Core.Kway.Options.make ~runs ~seed ~replication ~strategy ()
    in
    let envelope = { Service.Protocol.tenant; priority; portfolio } in
    let rpc req =
      checked
        (if retries <= 0 then Service.Client.rpc ~socket req
         else
           Service.Client.rpc_retry
             ~backoff:
               { Service.Client.Backoff.default with attempts = retries + 1 }
             ~socket req)
    in
    await_job ~rpc ~no_wait
      (or_die
         (rpc
            (Service.Protocol.Submit
               { name; format; netlist; options; envelope })))
  in
  Cmd.v
    (Cmd.info "submit" ~doc)
    Term.(
      const run $ socket_arg $ bench_arg $ circuit_arg $ seed_arg
      $ threshold_arg $ runs_arg $ no_wait_arg $ tenant_arg $ priority_arg
      $ portfolio_arg $ retries_arg $ multilevel_arg)

let perturb_cmd =
  let doc =
    "Generate a seeded pseudo-random ECO delta for a circuit and write \
     the delta (JSON, for $(b,fpgapart resubmit)) and/or the edited \
     netlist (for a cold run of the same edit)."
  in
  let frac_arg =
    Arg.(
      value & opt float 0.01
      & info [ "frac" ] ~docv:"F"
          ~doc:"Edit roughly F of the circuit's nodes (default 0.01).")
  in
  let delta_out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "delta-out" ] ~docv:"FILE"
          ~doc:"Write the delta as JSON ({\"ops\": [...]}).")
  in
  let edited_out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "edited-out" ] ~docv:"FILE"
          ~doc:
            "Write the edited circuit as a netlist (format from the \
             extension).")
  in
  let run bench builtin seed frac delta_out edited_out =
    let c = or_die (load_circuit bench builtin) in
    let delta = Netlist.Delta.random ~seed ~frac c in
    let edited =
      or_die
        (Result.map_error Netlist.Delta.error_to_string
           (Netlist.Delta.apply c delta))
    in
    (match delta_out with
    | None -> ()
    | Some path ->
        writing "delta" (fun () ->
            Obs.Json.write_file ~path (Service.Protocol.delta_to_json delta)));
    (match edited_out with
    | None -> ()
    | Some path -> or_die (write_netlist path edited));
    Format.printf "%d ops (seed %d, frac %g): %a@." (List.length delta) seed
      frac Netlist.Circuit.pp_summary edited
  in
  Cmd.v (Cmd.info "perturb" ~doc)
    Term.(
      const run $ bench_arg $ circuit_arg $ seed_arg $ frac_arg
      $ delta_out_arg $ edited_out_arg)

let resubmit_cmd =
  let doc =
    "Resubmit an edited design to a running daemon: apply a delta (see \
     $(b,fpgapart perturb)) to a finished base job's circuit and \
     repartition incrementally, warm-started from the base's cached \
     partition (cold fallback when the cache evicted it). The result \
     document prints to stdout like $(b,fpgapart submit)."
  in
  let base_job_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "base-job" ] ~docv:"JOB" ~doc:"Base job id.")
  in
  let base_digest_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "base-digest" ] ~docv:"DIGEST"
          ~doc:"Base content digest (the \"digest\" field of a reply).")
  in
  let delta_arg =
    Arg.(
      required
      & opt (some file) None
      & info [ "delta" ] ~docv:"FILE" ~doc:"Delta JSON file.")
  in
  let name_arg =
    Arg.(
      value & opt string "resubmit"
      & info [ "name" ] ~docv:"NAME" ~doc:"Job name for the result document.")
  in
  let run socket base_job base_digest delta_file name no_wait =
    let base =
      match (base_job, base_digest) with
      | Some id, None -> `Job id
      | None, Some d -> `Digest d
      | None, None ->
          prerr_endline "fpgapart: need --base-job or --base-digest";
          exit 1
      | Some _, Some _ ->
          prerr_endline
            "fpgapart: --base-job and --base-digest are mutually exclusive";
          exit 1
    in
    let delta =
      match
        let* text = read_file delta_file in
        let* json = Obs.Json.of_string text in
        Service.Protocol.delta_of_json json
      with
      | Ok d -> d
      | Error msg ->
          prerr_endline ("fpgapart: " ^ delta_file ^ ": " ^ msg);
          exit 1
    in
    let conn = or_die (Service.Client.connect socket) in
    Fun.protect
      ~finally:(fun () -> Service.Client.close conn)
      (fun () ->
        let rpc req = checked (Service.Client.request conn req) in
        await_job ~rpc ~no_wait
          (or_die
             (rpc
                (Service.Protocol.Resubmit
                   { name; base; delta; options = None }))))
  in
  Cmd.v
    (Cmd.info "resubmit" ~doc)
    Term.(
      const run $ socket_arg $ base_job_arg $ base_digest_arg $ delta_arg
      $ name_arg $ no_wait_arg)

(* A query verb whose reply's [member] prints as JSON. *)
let json_query_cmd name ~doc req member =
  let run socket = print_member (or_die (svc_rpc socket req)) member in
  Cmd.v (Cmd.info name ~doc) Term.(const run $ socket_arg)

let svc_stats_cmd =
  json_query_cmd "svc-stats" Service.Protocol.Stats "stats"
    ~doc:
      "Print a running daemon's counters, queue depth and cache state as \
       JSON (requests, cache hits/misses, rejections, cancellations, \
       queue-wait and run-time histograms)."

let fleet_stats_cmd =
  json_query_cmd "fleet-stats" Service.Protocol.Fleet_stats "fleet"
    ~doc:
      "Print a running fleet's topology and queue state as JSON: \
       per-worker state/pid/restarts, per-tenant queue depth and weight, \
       in-flight count, LRU and disk-cache occupancy, and the scheduler's \
       counters. Fails against a single-process daemon."

let svc_metrics_cmd =
  let doc =
    "Dump a running daemon's OpenMetrics/Prometheus text exposition to \
     stdout: live gauges (queue depth, inflight jobs, cache occupancy \
     and hit ratio, GC), SLO latency histograms (queue-wait, run, \
     end-to-end) and every service counter and histogram."
  in
  let run socket =
    let reply = or_die (svc_rpc socket Service.Protocol.Metrics) in
    match Option.bind (Obs.Json.member "metrics" reply) Obs.Json.to_str with
    | Some text -> print_string text
    | None -> malformed "metrics"
  in
  Cmd.v (Cmd.info "svc-metrics" ~doc) Term.(const run $ socket_arg)

let svc_health_cmd =
  json_query_cmd "svc-health" Service.Protocol.Health "health"
    ~doc:
      "Probe a running daemon's health: accepting|draining state, \
       protocol and stats schema versions, uptime, queue depth/capacity, \
       inflight jobs and cache occupancy, printed as JSON. Exits non-zero \
       when the daemon is unreachable."

let svc_cancel_cmd =
  let doc = "Request cooperative cancellation of a job on the daemon." in
  let job_pos =
    Arg.(required & pos 0 (some int) None & info [] ~docv:"JOB")
  in
  let run socket job =
    let reply = or_die (svc_rpc socket (Service.Protocol.Cancel job)) in
    let state =
      Option.value ~default:"?"
        (Option.bind (Obs.Json.member "state" reply) Obs.Json.to_str)
    in
    Format.printf "job %d: %s@." job state
  in
  Cmd.v (Cmd.info "svc-cancel" ~doc) Term.(const run $ socket_arg $ job_pos)

let svc_shutdown_cmd =
  let doc =
    "Ask the daemon to drain its queue and exit (queued jobs still run; \
     new submissions are refused)."
  in
  let run socket =
    ignore (or_die (svc_rpc socket Service.Protocol.Shutdown));
    Format.printf "daemon draining@."
  in
  Cmd.v (Cmd.info "svc-shutdown" ~doc) Term.(const run $ socket_arg)

let main =
  let doc =
    "Multi-way netlist partitioning into heterogeneous FPGAs with \
     functional replication (Kuznar-Brglez-Zajc, DAC 1994)"
  in
  Cmd.group (Cmd.info "fpgapart" ~doc)
    [
      list_cmd; stats_cmd; map_cmd; psi_cmd; bipartition_cmd; partition_cmd;
      convert_cmd; generate_cmd; optimize_cmd; timing_cmd; serve_cmd;
      submit_cmd; perturb_cmd; resubmit_cmd; svc_stats_cmd; fleet_stats_cmd;
      svc_metrics_cmd; svc_health_cmd; svc_cancel_cmd; svc_shutdown_cmd;
    ]

let () = exit (Cmd.eval main)
