(* Cmdliner-level tests for the shared CLI terms: environment-variable
   parsing must fail cleanly (naming the variable) rather than raising or
   silently clamping. *)

open Cmdliner

(* Evaluate a term against an argv and a simulated environment, capturing
   stderr. *)
let eval ?(argv = [| "test" |]) ?(env = fun _ -> None) term =
  let buf = Buffer.create 256 in
  let err = Format.formatter_of_buffer buf in
  let cmd = Cmd.v (Cmd.info "test") term in
  let result = Cmd.eval_value ~env ~err ~argv cmd in
  Format.pp_print_flush err ();
  (result, Buffer.contents buf)

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let expect_parse_error label (result, errout) needle =
  (match result with
  | Error `Parse -> ()
  | Error `Term -> ()
  | Error `Exn -> Alcotest.failf "%s: evaluation raised" label
  | Error `Version | Ok _ -> Alcotest.failf "%s: bad value accepted" label);
  checkb
    (Printf.sprintf "%s: error mentions %s" label needle)
    true
    (contains errout needle)

let test_jobs_env_non_integer () =
  let env name = if name = "FPGAPART_JOBS" then Some "abc" else None in
  expect_parse_error "FPGAPART_JOBS=abc"
    (eval ~env (Cli_common.jobs ()))
    "FPGAPART_JOBS"

let test_jobs_env_non_positive () =
  let env name = if name = "FPGAPART_JOBS" then Some "0" else None in
  expect_parse_error "FPGAPART_JOBS=0"
    (eval ~env (Cli_common.jobs ()))
    "FPGAPART_JOBS";
  let env name = if name = "FPGAPART_JOBS" then Some "-3" else None in
  expect_parse_error "FPGAPART_JOBS=-3"
    (eval ~env (Cli_common.jobs ()))
    "FPGAPART_JOBS"

let test_jobs_flag_non_positive () =
  expect_parse_error "--jobs 0"
    (eval ~argv:[| "test"; "--jobs"; "0" |] (Cli_common.jobs ()))
    "jobs"

let test_jobs_good_values () =
  (match eval (Cli_common.jobs ()) with
  | Ok (`Ok n), _ -> checki "default jobs" 1 n
  | _ -> Alcotest.fail "default rejected");
  let env name = if name = "FPGAPART_JOBS" then Some "4" else None in
  (match eval ~env (Cli_common.jobs ()) with
  | Ok (`Ok n), _ -> checki "env jobs" 4 n
  | _ -> Alcotest.fail "FPGAPART_JOBS=4 rejected");
  (* An explicit flag beats the environment. *)
  match eval ~env ~argv:[| "test"; "--jobs"; "2" |] (Cli_common.jobs ()) with
  | Ok (`Ok n), _ -> checki "flag beats env" 2 n
  | _ -> Alcotest.fail "--jobs 2 rejected"

let test_runs_non_positive () =
  expect_parse_error "--runs 0"
    (eval ~argv:[| "test"; "--runs"; "0" |] (Cli_common.runs ()))
    "runs"

let test_socket_env () =
  let env name =
    if name = "FPGAPART_SOCKET" then Some "/tmp/x.sock" else None
  in
  (match eval ~env (Cli_common.socket ()) with
  | Ok (`Ok s), _ ->
      Alcotest.check Alcotest.string "env socket" "/tmp/x.sock" s
  | _ -> Alcotest.fail "FPGAPART_SOCKET rejected");
  (* Without flag or env the option is required. *)
  match eval (Cli_common.socket ()) with
  | Error `Parse, _ | Error `Term, _ -> ()
  | _ -> Alcotest.fail "missing --socket accepted"

let test_objective_values () =
  (match eval (Cli_common.objective ()) with
  | Ok (`Ok o), _ ->
      Alcotest.check Alcotest.string "default objective" "paper"
        o.Fpga.Objective.name
  | _ -> Alcotest.fail "default objective rejected");
  match
    eval
      ~argv:[| "test"; "--objective"; "chiplet" |]
      (Cli_common.objective ())
  with
  | Ok (`Ok o), _ ->
      Alcotest.check Alcotest.string "named objective" "chiplet"
        o.Fpga.Objective.name
  | _ -> Alcotest.fail "--objective chiplet rejected"

let test_objective_unknown () =
  let result =
    eval
      ~argv:[| "test"; "--objective"; "nope" |]
      (Cli_common.objective ())
  in
  (* The rejection must list the valid names. *)
  expect_parse_error "--objective nope" result "multi-personality"

let test_device_lib_paths () =
  (match Cli_common.library_of_path None with
  | Ok lib ->
      checkb "default library is XC3000" true
        (Option.is_some (Fpga.Library.find lib "XC3020"))
  | Error e -> Alcotest.fail e);
  match Cli_common.library_of_path (Some "/nonexistent/lib.json") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing device library file accepted"

let test_replicate_negative () =
  expect_parse_error "--replicate=-1"
    (eval ~argv:[| "test"; "--replicate=-1" |]
       (Cli_common.replication_threshold ()))
    "replicate";
  match eval ~argv:[| "test"; "-T"; "0" |] (Cli_common.replication_threshold ())
  with
  | Ok (`Ok t), _ -> checkb "-T 0 accepted" true (t = Some 0)
  | _ -> Alcotest.fail "-T 0 rejected"

let test_multilevel_flag () =
  (match eval (Cli_common.multilevel ()) with
  | Ok (`Ok s), _ -> checkb "flat without the flag" true (s = Core.Kway.Flat)
  | _ -> Alcotest.fail "no flag rejected");
  (match eval ~argv:[| "test"; "--multilevel" |] (Cli_common.multilevel ()) with
  | Ok (`Ok s), _ ->
      checkb "default knobs with the flag" true
        (s = Core.Kway.Multilevel Core.Kway.Options.default_multilevel)
  | _ -> Alcotest.fail "--multilevel rejected");
  (* The V-cycle's knobs are not flags. *)
  expect_parse_error "--ml-max-levels 3"
    (eval
       ~argv:[| "test"; "--multilevel"; "--ml-max-levels"; "3" |]
       (Cli_common.multilevel ()))
    "unknown option"

let () =
  Alcotest.run "cli"
    [
      ( "jobs",
        [
          Alcotest.test_case "env non-integer" `Quick test_jobs_env_non_integer;
          Alcotest.test_case "env non-positive" `Quick
            test_jobs_env_non_positive;
          Alcotest.test_case "flag non-positive" `Quick
            test_jobs_flag_non_positive;
          Alcotest.test_case "good values" `Quick test_jobs_good_values;
        ] );
      ("runs", [ Alcotest.test_case "non-positive" `Quick test_runs_non_positive ]);
      ("socket", [ Alcotest.test_case "env" `Quick test_socket_env ]);
      ( "objective",
        [
          Alcotest.test_case "default and named" `Quick test_objective_values;
          Alcotest.test_case "unknown name" `Quick test_objective_unknown;
          Alcotest.test_case "device library paths" `Quick
            test_device_lib_paths;
        ] );
      ( "replicate",
        [ Alcotest.test_case "negative threshold" `Quick test_replicate_negative ]
      );
      ( "multilevel",
        [ Alcotest.test_case "flag and no knobs" `Quick test_multilevel_flag ] );
    ]
