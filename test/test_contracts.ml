(* The fixed contracts on the nine MCNC-profile circuits, checked through
   the built fpgapart binary (dune passes its path in FPGAPART_BIN) and
   compared only through Obs.Scrub:

   - golden identity: a default run (paper objective, flat strategy, the
     outer FPGAPART_JOBS) reduces under Scrub.stable to exactly
     test/golden/<circuit>.baseline.json, the scalar partitioner's
     decisions before the objective API existed; s9234 --multilevel and
     c1355 --objective multi-personality have goldens of their own;
   - jobs independence: against a FPGAPART_JOBS=1 baseline, a same-seed
     run, --jobs 4 --trace, FPGAPART_JOBS=4, the default run and a
     multilevel run at jobs 4 are byte-identical after the null mask, and
     the stats document records neither jobs nor the trace;
   - oracle identity: FPGAPART_FM_ORACLE=1 (every cached F-M gain
     cross-checked from scratch) changes nothing after the null mask, at
     the outer FPGAPART_JOBS, on c6288, or on all nine circuits when
     FPGAPART_PERF_FULL is set;
   - the non-paper objectives run, and an unknown one is refused;
   - an output path that cannot be written exits 1 with a message. *)

module J = Obs.Json

let circuits =
  [ "c1355"; "c5315"; "c6288"; "c7552"; "s13207"; "s15850"; "s38584";
    "s5378"; "s9234" ]

let exe =
  match Sys.getenv_opt "FPGAPART_BIN" with
  | Some p -> p
  | None -> Filename.concat (Sys.getcwd ()) "../bin/fpgapart.exe"

(* Children inherit the caller's environment, so the golden and oracle
   runs execute at the outer FPGAPART_JOBS; a variable a check sets itself
   replaces the inherited one, and FPGAPART_FM_ORACLE is only ever set by
   the oracle check. *)
let child_env env =
  let name kv =
    match String.index_opt kv '=' with
    | Some i -> String.sub kv 0 i
    | None -> kv
  in
  let own = "FPGAPART_FM_ORACLE" :: List.map name env in
  env
  @ List.filter
      (fun kv -> not (List.mem (name kv) own))
      (Array.to_list (Unix.environment ()))

let temp suffix = Filename.temp_file "contracts" suffix

let read_file path =
  let s = In_channel.with_open_bin path In_channel.input_all in
  Sys.remove path;
  s

(* Run fpgapart with stdout discarded; the exit code and stderr. *)
let run ?(env = []) args =
  let err = temp ".err" in
  let err_fd = Unix.openfile err [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Unix.create_process_env exe
      (Array.of_list (exe :: args))
      (Array.of_list (child_env env))
      Unix.stdin null err_fd
  in
  Unix.close err_fd;
  Unix.close null;
  let code =
    match snd (Unix.waitpid [] pid) with Unix.WEXITED n -> n | _ -> -1
  in
  (code, read_file err)

let parse what text =
  match J.of_string text with
  | Ok j -> j
  | Error e -> Alcotest.failf "%s: %s" what e

(* The stats document of a seed-1 partition of [circuit]. *)
let stats ?env circuit args =
  let out = temp ".json" in
  let flags = [ "--circuit"; circuit; "--seed"; "1"; "--stats-json"; out ] in
  let code, err = run ?env (("partition" :: flags) @ args) in
  if code <> 0 then
    Alcotest.failf "partition %s exited %d: %s" circuit code err;
  parse circuit (read_file out)

(* Default runs feed the golden, determinism and oracle checks alike. *)
let defaults = List.map (fun c -> (c, lazy (stats c []))) circuits

let default_run circuit = Lazy.force (List.assoc circuit defaults)

let rec has_key k = function
  | J.Obj fields -> List.exists (fun (k', v) -> k = k' || has_key k v) fields
  | J.List items -> List.exists (has_key k) items
  | _ -> false

let objective doc =
  Option.bind (J.member "options" doc) (J.member "objective")

(* Byte identity after the null mask; a failure shows where. *)
let check_scrubbed what a b =
  let scrub d = J.to_string (Obs.Scrub.null_mask Obs.Scrub.Stats d) in
  let a = scrub a and b = scrub b in
  if a <> b then begin
    let n = min (String.length a) (String.length b) in
    let rec first i = if i < n && a.[i] = b.[i] then first (i + 1) else i in
    let i = first 0 in
    let around s =
      let lo = max 0 (i - 80) in
      String.sub s lo (min 160 (String.length s - lo))
    in
    Alcotest.failf "%s: scrubbed documents differ at byte %d:\n%s\n---\n%s"
      what i (around a) (around b)
  end

let json = Alcotest.testable J.pp ( = )

(* Each golden: its file stem, circuit, extra flags and the objective the
   run must stamp. Besides the nine default runs, one pins the multilevel
   V-cycle and one the vector-feasibility objective. *)
let goldens =
  List.map (fun c -> (c, c, [], "paper")) circuits
  @ [
      ("s9234.multilevel", "s9234", [ "--multilevel" ], "paper");
      ( "c1355.multi-personality",
        "c1355",
        [ "--objective"; "multi-personality" ],
        "multi-personality" );
    ]

let test_golden (stem, circuit, args, name) () =
  let doc = if args = [] then default_run circuit else stats circuit args in
  Alcotest.(check (option json))
    "objective" (Some (J.String name)) (objective doc);
  let golden =
    parse "golden"
      (In_channel.with_open_bin
         (Printf.sprintf "golden/%s.baseline.json" stem)
         In_channel.input_all)
  in
  Alcotest.check json "stable subset equals the golden" golden
    (Obs.Scrub.stable doc)

let test_objective_smoke () =
  List.iter
    (fun name ->
      Alcotest.(check (option json))
        ("stamps " ^ name) (Some (J.String name))
        (objective (stats "c1355" [ "--objective"; name ])))
    [ "multi-personality"; "chiplet" ];
  let code, _ =
    run [ "partition"; "--circuit"; "c1355"; "--objective"; "no-such" ]
  in
  Alcotest.(check bool) "unknown objective refused" true (code <> 0)

(* Every comparison is against runs pinned to FPGAPART_JOBS=1, so the
   baseline does not follow the outer setting. *)
let test_jobs_independence () =
  let one = [ "FPGAPART_JOBS=1" ] in
  let a = stats ~env:one "c6288" [] in
  Alcotest.(check bool) "options record no jobs" false (has_key "jobs" a);
  check_scrubbed "same seed" a (stats ~env:one "c6288" []);
  let trace = temp ".trace.json" in
  let j4 = stats ~env:one "c6288" [ "--jobs"; "4"; "--trace"; trace ] in
  Sys.remove trace;
  Alcotest.(check bool) "no trace in stats" false (has_key "traceEvents" j4);
  check_scrubbed "--jobs 4 --trace" a j4;
  check_scrubbed "FPGAPART_JOBS=4" a
    (stats ~env:[ "FPGAPART_JOBS=4" ] "c6288" []);
  check_scrubbed "inherited FPGAPART_JOBS" a (default_run "c6288");
  check_scrubbed "multilevel --jobs 4"
    (stats ~env:one "s9234" [ "--multilevel" ])
    (stats ~env:one "s9234" [ "--multilevel"; "--jobs"; "4" ])

let test_oracle circuit () =
  check_scrubbed "FPGAPART_FM_ORACLE=1" (default_run circuit)
    (stats ~env:[ "FPGAPART_FM_ORACLE=1" ] circuit [])

let test_unwritable_outputs () =
  let bench = temp ".bench" in
  let refused what args =
    let code, err = run args in
    Alcotest.(check int) (what ^ " exit") 1 code;
    Alcotest.(check bool)
      (what ^ " message") true
      (String.starts_with ~prefix:"fpgapart: cannot write" err)
  in
  Alcotest.(check int) "generate" 0 (fst (run [ "generate"; "c1355"; bench ]));
  refused "generate" [ "generate"; "c1355"; "/nonexistent/x.bench" ];
  refused "convert" [ "convert"; bench; "/nonexistent/x.blif" ];
  refused "delta-out"
    [ "perturb"; "--circuit"; "c1355"; "--delta-out"; "/nonexistent/d.json" ];
  refused "edited-out"
    [ "perturb"; "--circuit"; "c1355"; "--edited-out"; "/nonexistent/e.bench" ];
  refused "log-file"
    [ "serve"; "--socket"; bench ^ ".sock";
      "--log-file"; "/nonexistent/l.jsonl" ];
  Sys.remove bench

let () =
  let oracle =
    if Sys.getenv_opt "FPGAPART_PERF_FULL" = None then [ "c6288" ] else circuits
  in
  let cases f = List.map (fun c -> Alcotest.test_case c `Slow (f c)) in
  Alcotest.run "contracts"
    [
      ( "golden",
        List.map
          (fun ((stem, _, _, _) as g) ->
            Alcotest.test_case stem `Slow (test_golden g))
          goldens );
      ( "objectives",
        [ Alcotest.test_case "smoke and refusal" `Quick test_objective_smoke ]
      );
      ( "determinism",
        [ Alcotest.test_case "jobs independence" `Slow test_jobs_independence ]
      );
      ("oracle", cases test_oracle oracle);
      ( "cli",
        [ Alcotest.test_case "unwritable outputs" `Quick
            test_unwritable_outputs ] );
    ]
