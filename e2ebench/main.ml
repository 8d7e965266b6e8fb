(* End-to-end benchmark: netlist bytes to a verified partition.

   One run:
     main.exe --workload W --seed N --seconds S --trace 0|1
   prints "workload metric value unit n=..." lines, then one JSON line
   {"correct", "attempted", "failed", "metrics"} holding the end-to-end
   metrics (--trace 0) or the per-layer metrics (--trace 1). Exits 1 when
   any output fails the oracle.

   Other commands:
     main.exe set --seeds 1-10 [--workload W ...] --out FILE
       runs every (workload, seed) in its own child process and collects
       the run records into FILE;
     main.exe compare OLD NEW
       compares two such files under the bounds in BENCHMARK.json;
     main.exe smoke
       runs every workload at toy size, traced and untraced, and checks
       the oracle and the metric names against BENCHMARK.json. *)

open Cmdliner

(* Sockets and trace artifacts, relative to the working directory. *)
let scratch = ".e2ebench"

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

let build_id =
  lazy
    (try Digest.to_hex (Digest.file Sys.executable_name)
     with Sys_error _ -> "unknown")

(* Fleet workers exec the fpgapart CLI, built next to this executable. *)
let worker_exe () =
  List.fold_left Filename.concat
    (Filename.dirname Sys.executable_name)
    [ ".."; "bin"; "fpgapart.exe" ]

let run_workload ~size ~workload ~seed ~seconds ~trace ~trace_dir =
  mkdir_p scratch;
  if trace then mkdir_p trace_dir;
  let ctx =
    {
      Workloads.seed;
      seconds;
      trace_dir = (if trace then Some trace_dir else None);
      worker_exe = worker_exe ();
      scratch;
      size;
    }
  in
  let o = (List.assoc workload Workloads.all) ctx in
  let declared =
    if trace then Metrics.per_layer else Metrics.end_to_end @ Metrics.context
  in
  {
    Metrics.workload;
    seed;
    traced = trace;
    build = Lazy.force build_id;
    attempted = max 1 o.Workloads.attempted;
    failed = List.length o.Workloads.failures;
    failures = o.Workloads.failures;
    digest = o.Workloads.digest;
    metrics = Metrics.complete declared o.Workloads.metrics;
  }

let workload_names = List.map fst Workloads.all

(* ------------------------------------------------------------------ *)
(* Commands                                                           *)
(* ------------------------------------------------------------------ *)

let run_cmd workload seed seconds trace trace_dir record =
  match
    run_workload ~size:Workloads.Full ~workload ~seed
      ~seconds:(float_of_int seconds) ~trace:(trace <> 0) ~trace_dir
  with
  | exception Failure msg ->
      prerr_endline ("e2ebench: " ^ workload ^ ": set-up failed: " ^ msg);
      2
  | r ->
      List.iter
        (fun (m : Metrics.metric) ->
          Printf.printf "%s %s %.6g %s n=%d\n" workload m.Metrics.name
            m.Metrics.value m.Metrics.unit m.Metrics.n)
        r.Metrics.metrics;
      List.iter (fun f -> prerr_endline ("e2ebench: " ^ f)) r.Metrics.failures;
      Option.iter
        (fun path -> Obs.Json.write_file ~path (Metrics.record_to_json r))
        record;
      print_endline (Metrics.result_line r);
      if Metrics.correct r then 0 else 1

let parse_seeds s =
  match String.split_on_char '-' s with
  | [ a; b ] ->
      let a = int_of_string a in
      List.init (int_of_string b - a + 1) (fun i -> a + i)
  | _ -> List.map int_of_string (String.split_on_char ',' s)

(* One child process per run, so heap and GC state never carry over. *)
let child ~workload ~seed ~seconds ~trace ~record =
  if Sys.file_exists record then Sys.remove record;
  let args =
    [ "--workload"; workload; "--seed"; string_of_int seed; "--seconds";
      string_of_int seconds; "--trace"; string_of_int trace; "--record";
      record ]
  in
  let exe = Sys.executable_name in
  let pid =
    Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin
      Unix.stderr Unix.stderr
  in
  let _, status = Unix.waitpid [] pid in
  let parsed =
    try
      Result.to_option
        (Obs.Json.of_string (In_channel.with_open_bin record In_channel.input_all))
    with Sys_error _ -> None
  in
  match Option.bind parsed Metrics.record_of_json with
  | Some r -> r
  | None ->
      let why =
        match status with
        | Unix.WEXITED c -> Printf.sprintf "exited %d without a record" c
        | _ -> "killed"
      in
      {
        Metrics.workload;
        seed;
        traced = trace <> 0;
        build = Lazy.force build_id;
        attempted = 1;
        failed = 1;
        failures = [ why ];
        digest = "";
        metrics = [];
      }

let set_cmd seeds workloads seconds trace out =
  let workloads = if workloads = [] then workload_names else workloads in
  let record = out ^ ".run.json" in
  let records =
    List.concat_map
      (fun seed ->
        List.map
          (fun workload ->
            let r = child ~workload ~seed ~seconds ~trace ~record in
            Printf.eprintf "e2ebench: %s seed %d: %s\n%!" workload seed
              (if Metrics.correct r then "ok" else "FAILED");
            r)
          workloads)
      (parse_seeds seeds)
  in
  if Sys.file_exists record then Sys.remove record;
  Metrics.write_set ~path:out records;
  List.iter
    (fun w ->
      let rs =
        List.filter
          (fun (r : Metrics.record) -> String.equal r.Metrics.workload w)
          records
      in
      let names =
        match List.find_opt Metrics.correct rs with
        | Some r ->
            List.map
              (fun (m : Metrics.metric) -> (m.Metrics.name, m.Metrics.unit))
              r.Metrics.metrics
        | None -> []
      in
      List.iter
        (fun (name, unit) ->
          let vs = List.filter_map (fun r -> Compare.value r name) rs in
          let q1, _, q3 = Metrics.quartiles vs in
          let med = Metrics.median vs in
          Printf.printf
            "%-13s %-28s median %11.5g %-8s q1 %11.5g q3 %11.5g spread %6.2f%% n=%d\n"
            w name med unit q1 q3
            (100.0 *. (q3 -. q1) /. Float.max (Float.abs med) 1e-12)
            (List.length vs))
        names)
    workloads;
  if List.for_all Metrics.correct records then 0 else 1

let compare_cmd spec old_path new_path =
  match Compare.run ~spec ~old_path ~new_path with
  | Error msg ->
      prerr_endline ("e2ebench: " ^ msg);
      2
  | Ok clean -> if clean then 0 else 1

let valid_name s =
  String.length s >= 1
  && String.length s <= 64
  && (match s.[0] with 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' -> true | _ -> false)
  && String.for_all
       (function
         | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
         | _ -> false)
       s

let smoke_cmd spec =
  match Compare.read_spec spec with
  | Error msg ->
      prerr_endline ("e2ebench smoke: " ^ spec ^ ": " ^ msg);
      1
  | Ok sp ->
      let problems = ref [] in
      let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
      List.iter
        (fun w ->
          if not (List.mem w workload_names) then problem "unknown workload %s" w;
          if not (valid_name w) then problem "bad workload name %S" w)
        sp.workloads;
      let emits ~trace declared =
        List.iter
          (fun w ->
            match
              run_workload ~size:Workloads.Smoke ~workload:w ~seed:1 ~seconds:0.0
                ~trace ~trace_dir:(Filename.concat scratch "smoke-trace")
            with
            | exception Failure msg -> problem "%s: set-up failed: %s" w msg
            | r ->
                if not (Metrics.correct r) then
                  problem "%s (trace %b): %s" w trace
                    (String.concat "; " r.Metrics.failures);
                List.iter
                  (fun (name, unit) ->
                    if not (valid_name name) then problem "bad metric name %S" name;
                    match
                      List.find_opt
                        (fun (m : Metrics.metric) -> m.Metrics.name = name)
                        r.Metrics.metrics
                    with
                    | None -> problem "%s (trace %b) does not emit %s" w trace name
                    | Some m when m.Metrics.unit <> unit ->
                        problem "%s: %s is in %s, BENCHMARK.json says %s" w name
                          m.Metrics.unit unit
                    | Some m when m.Metrics.n = 0 && not trace ->
                        problem "%s: %s has no samples" w name
                    | Some _ -> ())
                  declared)
          (List.filter (fun w -> List.mem w workload_names) sp.workloads)
      in
      emits ~trace:false
        (List.map
           (fun (b : Compare.bound) -> (b.Compare.name, b.Compare.unit))
           sp.end_to_end);
      emits ~trace:true sp.per_layer;
      match List.rev !problems with
      | [] ->
          Printf.printf
            "e2ebench smoke: %d workloads ok, %d end-to-end and %d per-layer metrics\n"
            (List.length sp.workloads) (List.length sp.end_to_end)
            (List.length sp.per_layer);
          0
      | ps ->
          List.iter (fun p -> prerr_endline ("e2ebench smoke: " ^ p)) ps;
          1

(* ------------------------------------------------------------------ *)
(* Command line                                                       *)
(* ------------------------------------------------------------------ *)

let seconds_arg =
  Arg.(
    value & opt int 10
    & info [ "seconds" ] ~docv:"S" ~doc:"Seconds each run measures for.")

let trace_arg =
  Arg.(
    value & opt int 0
    & info [ "trace" ] ~docv:"0|1"
        ~doc:"1 replays the workload traced and reports per-layer metrics.")

let spec_arg =
  Arg.(
    value & opt string "BENCHMARK.json"
    & info [ "spec" ] ~docv:"FILE" ~doc:"The benchmark definition.")

let default_term =
  let workload =
    Arg.(
      required
      & opt (some (enum (List.map (fun n -> (n, n)) workload_names))) None
      & info [ "workload" ] ~docv:"W" ~doc:"Workload to run.")
  in
  let seed =
    Arg.(
      value & opt int 1
      & info [ "seed" ] ~docv:"N" ~doc:"Seed the inputs are made from.")
  in
  let trace_dir =
    Arg.(
      value
      & opt string (Filename.concat scratch "trace")
      & info [ "trace-dir" ] ~docv:"DIR"
          ~doc:"Where a traced run writes its artifacts.")
  in
  let record =
    Arg.(
      value
      & opt (some string) None
      & info [ "record" ] ~docv:"FILE" ~doc:"Also write the full run record here.")
  in
  Term.(
    const run_cmd $ workload $ seed $ seconds_arg $ trace_arg $ trace_dir
    $ record)

let set =
  let seeds =
    Arg.(
      value & opt string "1-10"
      & info [ "seeds" ] ~docv:"A-B|A,B,..." ~doc:"Seeds to run.")
  in
  let workloads =
    Arg.(
      value & opt_all string []
      & info [ "workload" ] ~docv:"W" ~doc:"Workload (repeatable; default all).")
  in
  let out =
    Arg.(
      required
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE" ~doc:"Set file to write.")
  in
  Cmd.v
    (Cmd.info "set" ~doc:"Run workloads over seeds, one child process per run.")
    Term.(const set_cmd $ seeds $ workloads $ seconds_arg $ trace_arg $ out)

let compare =
  Cmd.v
    (Cmd.info "compare" ~doc:"Compare two set files under the BENCHMARK.json bounds.")
    Term.(
      const compare_cmd $ spec_arg
      $ Arg.(required & pos 0 (some string) None & info [] ~docv:"OLD")
      $ Arg.(required & pos 1 (some string) None & info [] ~docv:"NEW"))

let smoke =
  Cmd.v
    (Cmd.info "smoke" ~doc:"Toy-size run of every workload: oracle and metric names.")
    Term.(const smoke_cmd $ spec_arg)

let () =
  exit
    (Cmd.eval'
       (Cmd.group ~default:default_term
          (Cmd.info "e2ebench"
             ~doc:"End-to-end benchmark: netlist bytes to a verified partition.")
          [ set; compare; smoke ]))
