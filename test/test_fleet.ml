(* Tests for the fleet layer: the weighted fair queue, the persistent
   disk cache (including corrupt-record and torn-tail recovery), the
   client's retry backoff, the stale-socket bind probe, batched
   submission through the single-process engine, and the scheduler
   end-to-end — multi-worker fan-out over real forked worker processes,
   SIGKILL fault injection with exactly-once requeue, portfolio racing
   (the cheapest leg wins, a cancel reaches every leg, a race that loses
   every worker fails without a requeue), and disk-cache persistence
   across a fleet restart.

   The "fleet cli" cases drive `fpgapart serve --workers N` itself: 1000
   load-generator jobs, a `--workers 1` reply byte-identical to the solo
   daemon's, the key order of the four state documents, the OpenMetrics
   exposition, the per-job trace and serve's usage errors.

   The end-to-end tests spawn real worker processes and need the
   fpgapart binary; dune passes its path in FPGAPART_BIN, and the load
   generator's in FPGAPART_LOADGEN. *)

module J = Obs.Json
module P = Service.Protocol
module C = Service.Client
module U = Test_util

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool

(* ------------------------------------------------------------------ *)
(* Fair queue                                                         *)
(* ------------------------------------------------------------------ *)

let push_ok q ~tenant ?(priority = 0) v =
  match Service.Fair_queue.push q ~tenant ~priority v with
  | Ok () -> ()
  | Error (`Tenant_full _) -> Alcotest.fail "unexpected Tenant_full"

let test_fair_queue_weights () =
  let q =
    Service.Fair_queue.create ~weights:[ ("a", 2) ] ~cap:16 ()
  in
  (* Backlog both tenants, then pop everything: tenant a (weight 2)
     gets two serves per turn, b (weight 1) one. *)
  for i = 0 to 5 do
    push_ok q ~tenant:"a" (Printf.sprintf "a%d" i)
  done;
  for i = 0 to 2 do
    push_ok q ~tenant:"b" (Printf.sprintf "b%d" i)
  done;
  let order =
    List.init 9 (fun _ ->
        match Service.Fair_queue.pop q with
        | Some v -> v
        | None -> Alcotest.fail "queue drained early")
  in
  Alcotest.(check (list string))
    "2:1 interleave"
    [ "a0"; "a1"; "b0"; "a2"; "a3"; "b1"; "a4"; "a5"; "b2" ]
    order;
  checkb "empty" true (Service.Fair_queue.pop q = None);
  (* A weight no envelope can match, or a tenant's second weight, would
     be dropped silently: both are refused where weights are stored. *)
  List.iter
    (fun (what, weights) ->
      checkb (what ^ " refused") true
        (Result.is_error (Service.Fair_queue.check_weights weights));
      match Service.Fair_queue.create ~weights ~cap:4 () with
      | (_ : int Service.Fair_queue.t) -> Alcotest.failf "create took %s" what
      | exception Invalid_argument _ -> ())
    [
      ("a tenant weighted twice", [ ("a", 1); ("b", 2); ("a", 5) ]);
      ("an empty tenant", [ ("", 2) ]);
      ("a 65-character tenant", [ (String.make 65 't', 2) ]);
      ("a zero weight", [ ("a", 0) ]);
    ];
  checkb "a 64-character tenant accepted" true
    (Result.is_ok
       (Service.Fair_queue.check_weights [ (String.make 64 't', 2); ("a", 1) ]))

let test_fair_queue_priorities () =
  let q = Service.Fair_queue.create ~cap:16 () in
  push_ok q ~tenant:"t" ~priority:0 "low1";
  push_ok q ~tenant:"t" ~priority:5 "high";
  push_ok q ~tenant:"t" ~priority:0 "low2";
  Alcotest.(check (list string))
    "priority desc, FIFO within" [ "high"; "low1"; "low2" ]
    (List.init 3 (fun _ -> Option.get (Service.Fair_queue.pop q)));
  (* position reports the within-tenant index. *)
  push_ok q ~tenant:"t" ~priority:0 "x";
  push_ok q ~tenant:"t" ~priority:9 "y";
  checkb "position of x" true
    (Service.Fair_queue.position q ~tenant:"t" (String.equal "x") = Some 1);
  checkb "position of y" true
    (Service.Fair_queue.position q ~tenant:"t" (String.equal "y") = Some 0)

let test_fair_queue_backpressure () =
  let q = Service.Fair_queue.create ~cap:2 () in
  push_ok q ~tenant:"noisy" 1;
  push_ok q ~tenant:"noisy" 2;
  (match Service.Fair_queue.push q ~tenant:"noisy" ~priority:0 3 with
  | Error (`Tenant_full d) -> checki "full depth" 2 d
  | Ok () -> Alcotest.fail "expected Tenant_full");
  (* The cap is per tenant: a quiet tenant is unaffected. *)
  push_ok q ~tenant:"quiet" 1;
  checki "total" 3 (Service.Fair_queue.length q);
  checki "noisy depth" 2 (Service.Fair_queue.depth q "noisy");
  checki "quiet depth" 1 (Service.Fair_queue.depth q "quiet")

(* Conservation property: whatever mix of tenants, priorities and
   interleaved pushes, pops return every accepted item exactly once. *)
let test_fair_queue_conservation =
  QCheck.Test.make ~name:"fair queue loses and duplicates nothing" ~count:100
    QCheck.(
      list (pair (int_range 0 4) (int_range (-3) 3)))
    (fun pushes ->
      let q = Service.Fair_queue.create ~weights:[ ("t0", 3) ] ~cap:8 () in
      let accepted = ref [] in
      List.iteri
        (fun i (tenant, priority) ->
          let tenant = Printf.sprintf "t%d" tenant in
          match Service.Fair_queue.push q ~tenant ~priority i with
          | Ok () -> accepted := i :: !accepted
          | Error (`Tenant_full _) -> ())
        pushes;
      let drained = Service.Fair_queue.drain q in
      List.sort compare drained = List.sort compare !accepted
      && Service.Fair_queue.length q = 0)

(* ------------------------------------------------------------------ *)
(* Disk cache                                                         *)
(* ------------------------------------------------------------------ *)

let temp_dir () =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "fpgapart-fleet-%d-%d" (Unix.getpid ()) (Random.int 100000))
  in
  dir

let open_cache dir =
  match Fleet.Disk_cache.open_dir dir with
  | Ok d -> d
  | Error e -> Alcotest.fail ("disk cache: " ^ e)

let doc_of_int i = J.Obj [ ("v", J.Int i); ("payload", J.String (String.make 64 'x')) ]

let test_disk_cache_roundtrip () =
  let dir = temp_dir () in
  let d = open_cache dir in
  for i = 1 to 20 do
    Fleet.Disk_cache.add d (Printf.sprintf "key%d" i) (doc_of_int i)
  done;
  checki "len" 20 (Fleet.Disk_cache.length d);
  checkb "find" true (Fleet.Disk_cache.find d "key7" = Some (doc_of_int 7));
  checkb "key20 present" true (Fleet.Disk_cache.find d "key20" <> None);
  checkb "miss" true (Fleet.Disk_cache.find d "absent" = None);
  (* First write for a key wins; a duplicate add is a no-op. *)
  Fleet.Disk_cache.add d "key7" (doc_of_int 999);
  checkb "dup add ignored" true
    (Fleet.Disk_cache.find d "key7" = Some (doc_of_int 7));
  Fleet.Disk_cache.close d;
  (* Reload from disk: the index comes back. *)
  let d2 = open_cache dir in
  checki "reloaded len" 20 (Fleet.Disk_cache.length d2);
  checkb "reloaded find" true
    (Fleet.Disk_cache.find d2 "key13" = Some (doc_of_int 13));
  checki "no corruption" 0 (Fleet.Disk_cache.corrupt_skipped d2);
  Fleet.Disk_cache.close d2

let test_disk_cache_corrupt_record_skipped () =
  let dir = temp_dir () in
  let d = open_cache dir in
  Fleet.Disk_cache.add d "alpha" (doc_of_int 1);
  Fleet.Disk_cache.add d "beta" (doc_of_int 2);
  Fleet.Disk_cache.add d "gamma" (doc_of_int 3);
  Fleet.Disk_cache.close d;
  (* Flip one byte inside the beta record's document body. The lengths
     still frame the record, so the scan must skip exactly that record
     (checksum mismatch) and keep serving alpha and gamma. *)
  let seg = Filename.concat dir "cache-0.seg" in
  let fd = Unix.openfile seg [ Unix.O_RDWR ] 0 in
  let size = (Unix.fstat fd).Unix.st_size in
  let record_len = size / 3 in
  ignore (Unix.lseek fd (record_len + (record_len / 2)) Unix.SEEK_SET);
  ignore (Unix.write fd (Bytes.of_string "!") 0 1);
  Unix.close fd;
  let d2 = open_cache dir in
  checki "one record skipped" 1 (Fleet.Disk_cache.corrupt_skipped d2);
  checki "two keys survive" 2 (Fleet.Disk_cache.length d2);
  checkb "alpha ok" true (Fleet.Disk_cache.find d2 "alpha" = Some (doc_of_int 1));
  checkb "gamma ok" true (Fleet.Disk_cache.find d2 "gamma" = Some (doc_of_int 3));
  checkb "beta gone" true (Fleet.Disk_cache.find d2 "beta" = None);
  Fleet.Disk_cache.close d2

let test_disk_cache_torn_tail () =
  let dir = temp_dir () in
  let d = open_cache dir in
  Fleet.Disk_cache.add d "whole" (doc_of_int 1);
  Fleet.Disk_cache.close d;
  (* Append half a record: a plausible header whose lengths run past
     EOF — the crash-mid-append shape. The scan must stop at the last
     whole record. *)
  let seg = Filename.concat dir "cache-0.seg" in
  let fd = Unix.openfile seg [ Unix.O_WRONLY; Unix.O_APPEND ] 0 in
  let torn = Bytes.make 30 '\x01' in
  ignore (Unix.write fd torn 0 (Bytes.length torn));
  Unix.close fd;
  let d2 = open_cache dir in
  checkb "whole record survives" true
    (Fleet.Disk_cache.find d2 "whole" = Some (doc_of_int 1));
  checkb "torn tail counted" true (Fleet.Disk_cache.corrupt_skipped d2 >= 1);
  Fleet.Disk_cache.add d2 "fresh" (doc_of_int 2);
  checkb "fresh key lands" true
    (Fleet.Disk_cache.find d2 "fresh" = Some (doc_of_int 2));
  Fleet.Disk_cache.close d2;
  (* And the whole thing reloads cleanly again. *)
  let d3 = open_cache dir in
  checki "both keys" 2 (Fleet.Disk_cache.length d3);
  checkb "fresh reloads" true
    (Fleet.Disk_cache.find d3 "fresh" = Some (doc_of_int 2));
  Fleet.Disk_cache.close d3

let test_disk_cache_rot_after_open () =
  let dir = temp_dir () in
  let d = open_cache dir in
  Fleet.Disk_cache.add d "alpha" (doc_of_int 1);
  Fleet.Disk_cache.add d "beta" (doc_of_int 2);
  (* Overwrite the 2 of beta's "v":2 with a 7 behind the open cache's
     back: the lengths still frame the record and the JSON still parses,
     so only the stored checksum can tell. *)
  let seg = Filename.concat dir "cache-0.seg" in
  let text = In_channel.with_open_bin seg In_channel.input_all in
  let digit = Str.search_forward (Str.regexp_string {|"v":2|}) text 0 + 4 in
  let fd = Unix.openfile seg [ Unix.O_WRONLY ] 0 in
  ignore (Unix.lseek fd digit Unix.SEEK_SET);
  ignore (Unix.write fd (Bytes.of_string "7") 0 1);
  Unix.close fd;
  checkb "alpha still served" true
    (Fleet.Disk_cache.find d "alpha" = Some (doc_of_int 1));
  checkb "rotted beta refused" true (Fleet.Disk_cache.find d "beta" = None);
  checki "rot counted" 1 (Fleet.Disk_cache.corrupt_skipped d);
  Fleet.Disk_cache.close d

let test_disk_cache_torn_tail_cut () =
  let dir = temp_dir () in
  let d = open_cache dir in
  Fleet.Disk_cache.add d "whole" (doc_of_int 1);
  Fleet.Disk_cache.close d;
  let seg = Filename.concat dir "cache-0.seg" in
  let fd = Unix.openfile seg [ Unix.O_WRONLY; Unix.O_APPEND ] 0 in
  let torn = Bytes.make 30 '\x01' in
  ignore (Unix.write fd torn 0 (Bytes.length torn));
  Unix.close fd;
  let d2 = open_cache dir in
  Fleet.Disk_cache.add d2 "fresh" (doc_of_int 2);
  Fleet.Disk_cache.close d2;
  (* The tail was cut at the reopen: nothing is left to count, and the
     fresh record went into the same file. *)
  let d3 = open_cache dir in
  checki "torn tail gone" 0 (Fleet.Disk_cache.corrupt_skipped d3);
  checki "both keys" 2 (Fleet.Disk_cache.length d3);
  Fleet.Disk_cache.close d3;
  Alcotest.(check (list string)) "one cache file" [ "cache-0.seg" ]
    (Array.to_list (Sys.readdir dir))

(* ------------------------------------------------------------------ *)
(* Client retry backoff                                               *)
(* ------------------------------------------------------------------ *)

let test_backoff_schedule () =
  let b = { C.Backoff.attempts = 5; base = 0.1; cap = 0.5; jitter = 0.5 } in
  (* Zero jitter (the default rand) makes the schedule the pure capped
     exponential: 0.1, 0.2, 0.4, 0.5 (capped). *)
  let sched = C.Backoff.schedule b in
  checki "four delays for five attempts" 4 (List.length sched);
  List.iter2
    (fun want got -> checkb "delay" true (abs_float (want -. got) < 1e-9))
    [ 0.1; 0.2; 0.4; 0.5 ] sched;
  (* Full jitter pulls each delay down by up to [jitter * delay]. *)
  let low = C.Backoff.schedule ~rand:(fun () -> 0.999999) b in
  List.iter2
    (fun full jittered ->
      checkb "jittered below full" true (jittered < full);
      checkb "jittered above floor" true (jittered >= full *. 0.5 -. 1e-6))
    [ 0.1; 0.2; 0.4; 0.5 ] low;
  (* Degenerate config: one attempt means no delays. *)
  checki "single attempt" 0
    (List.length (C.Backoff.schedule { b with attempts = 1 }))

let test_retry_connection_refused () =
  (* No listener: rpc_retry must try [attempts] times, sleeping the
     schedule between tries, then surface the connect error. *)
  let sleeps = ref [] in
  let b = { C.Backoff.attempts = 3; base = 0.01; cap = 0.1; jitter = 0.0 } in
  let sock = Filename.temp_file "fleet-retry" ".sock" in
  Sys.remove sock;
  (match
     C.rpc_retry ~backoff:b
       ~sleep:(fun s -> sleeps := s :: !sleeps)
       ~socket:sock P.Health
   with
  | Ok _ -> Alcotest.fail "expected connect failure"
  | Error _ -> ());
  checki "slept between attempts" 2 (List.length !sleeps)

(* ------------------------------------------------------------------ *)
(* Stale socket probe                                                 *)
(* ------------------------------------------------------------------ *)

let test_stale_socket_bind () =
  let path = Filename.temp_file "fleet-stale" ".sock" in
  Sys.remove path;
  (* A socket file nobody is listening on — the corpse of a SIGKILLed
     daemon. Binding must detect it dead (connect refused) and unlink. *)
  let corpse = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind corpse (Unix.ADDR_UNIX path);
  Unix.close corpse;  (* closed without listen: connects are refused *)
  checkb "corpse exists" true (Sys.file_exists path);
  (match Service.Front.bind_socket path with
  | Ok fd -> Unix.close fd; Sys.remove path
  | Error e -> Alcotest.fail ("stale socket not reclaimed: " ^ e));
  (* A live listener must NOT be clobbered. *)
  let live = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind live (Unix.ADDR_UNIX path);
  Unix.listen live 1;
  (match Service.Front.bind_socket path with
  | Ok _ -> Alcotest.fail "bound over a live daemon"
  | Error _ -> ());
  checkb "live socket kept" true (Sys.file_exists path);
  Unix.close live;
  Sys.remove path

(* ------------------------------------------------------------------ *)
(* Batched submission through the single-process engine               *)
(* ------------------------------------------------------------------ *)

let tiny_bench =
  "INPUT(a)\nINPUT(b)\nOUTPUT(f)\nc = AND(a, b)\nf = NOT(c)\n"

let temp_socket () =
  let path = Filename.temp_file "fpgapart-fleet-test" ".sock" in
  Sys.remove path;
  path

let with_server ?(config = fun c -> c) f =
  let path = temp_socket () in
  let cfg = config (Service.Server.default_config ~socket_path:path) in
  let ready = Mutex.create () and ready_cond = Condition.create () in
  let is_ready = ref false in
  let on_ready () =
    Mutex.lock ready;
    is_ready := true;
    Condition.broadcast ready_cond;
    Mutex.unlock ready
  in
  let server_result = ref (Ok ()) in
  let server =
    Thread.create (fun () -> server_result := Service.Server.run ~on_ready cfg) ()
  in
  Mutex.lock ready;
  while not !is_ready do
    Condition.wait ready_cond ready
  done;
  Mutex.unlock ready;
  let shutdown () =
    (match C.rpc ~socket:path P.Shutdown with Ok _ | Error _ -> ());
    Thread.join server
  in
  Fun.protect ~finally:shutdown (fun () -> f path);
  match !server_result with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("server: " ^ e)

let rpc_ok path req =
  match C.rpc ~socket:path req with
  | Error e -> Alcotest.fail e
  | Ok reply -> (
      match C.ok_or_error reply with
      | Ok reply -> reply
      | Error (code, msg) -> Alcotest.failf "%s [%s]" msg code)

let int_field name reply =
  match Option.bind (J.member name reply) J.to_int with
  | Some v -> v
  | None -> Alcotest.failf "reply lacks int field %S" name

let batch_item ?(seed = 1) name netlist =
  {
    P.b_name = name;
    b_format = P.Bench;
    b_netlist = netlist;
    b_options = Core.Kway.Options.make ~runs:1 ~seed ();
  }

let test_submit_batch_roundtrip () =
  with_server (fun path ->
      let reply =
        rpc_ok path
          (P.Submit_batch
             {
               items =
                 [
                   batch_item "one" tiny_bench;
                   batch_item "two" tiny_bench ~seed:2;
                   batch_item "same-as-one" tiny_bench;
                 ];
               envelope = P.default_envelope;
             })
      in
      let items =
        match J.member "items" reply with
        | Some (J.List l) -> l
        | _ -> Alcotest.fail "no items list"
      in
      checki "one reply per item" 3 (List.length items);
      (* Every item got its own job id; all three deliver a result. *)
      let ids = List.map (int_field "job") items in
      checki "distinct ids" 3 (List.length (List.sort_uniq compare ids));
      List.iter
        (fun id ->
          let r = rpc_ok path (P.Result { job = id; wait = true }) in
          checkb "has result" true (J.member "result" r <> None))
        ids;
      (* The batch counters advanced. *)
      let stats = rpc_ok path P.Stats in
      let counters =
        Option.get
          (Option.bind
             (Option.bind (J.member "stats" stats) (J.member "obs"))
             (J.member "counters"))
      in
      checkb "batch counter" true
        (match Option.bind (J.member "service.batches" counters) J.to_int with
        | Some n -> n >= 1
        | None -> false))

(* ------------------------------------------------------------------ *)
(* Fleet end-to-end (real worker processes)                           *)
(* ------------------------------------------------------------------ *)

let with_fleet ?(config = fun c -> c) f =
  match U.fpgapart_bin () with
  | None -> Alcotest.skip ()
  | Some exe ->
      let path = temp_socket () in
      let cfg =
        config
          (Fleet.Scheduler.default_config ~socket_path:path ~workers:2
             ~worker_exe:exe)
      in
      let ready = Mutex.create () and ready_cond = Condition.create () in
      let is_ready = ref false in
      let on_ready () =
        Mutex.lock ready;
        is_ready := true;
        Condition.broadcast ready_cond;
        Mutex.unlock ready
      in
      let result = ref (Ok ()) in
      let sched =
        Thread.create (fun () -> result := Fleet.Scheduler.run ~on_ready cfg) ()
      in
      Mutex.lock ready;
      while not !is_ready do
        Condition.wait ready_cond ready
      done;
      Mutex.unlock ready;
      let shutdown () =
        (match C.rpc ~socket:path P.Shutdown with Ok _ | Error _ -> ());
        Thread.join sched
      in
      Fun.protect ~finally:shutdown (fun () ->
          U.wait_workers_up path cfg.Fleet.Scheduler.workers;
          f path);
      match !result with
      | Ok () -> ()
      | Error e -> Alcotest.fail ("scheduler: " ^ e)

let fleet_counters path =
  let reply = rpc_ok path P.Fleet_stats in
  Option.get
    (Option.bind
       (Option.bind (J.member "fleet" reply) (J.member "obs"))
       (J.member "counters"))

let counter name counters =
  Option.value ~default:0 (Option.bind (J.member name counters) J.to_int)

let submit_req ?(runs = 1) ?(seed = 1) ?(envelope = P.default_envelope) name =
  P.Submit
    {
      name;
      format = P.Bench;
      netlist = tiny_bench;
      options = Core.Kway.Options.make ~runs ~seed ();
      envelope;
    }

let builtin_bench name =
  match Experiments.Suite.find name with
  | Some e ->
      Netlist.Bench_format.to_string (Lazy.force e.Experiments.Suite.circuit)
  | None -> Alcotest.failf "builtin %s missing" name

let await path id =
  let r = rpc_ok path (P.Result { job = id; wait = true }) in
  checkb "terminal result" true (J.member "result" r <> None);
  r

let test_fleet_end_to_end () =
  with_fleet (fun path ->
      (* Miss, compute on a worker, then hit — byte-identical replies
         come free because cached replies re-serialize the same doc. *)
      let r1 = rpc_ok path (submit_req "e2e" ~seed:5) in
      let id1 = int_field "job" r1 in
      ignore (await path id1);
      let r2 = rpc_ok path (submit_req "e2e" ~seed:5) in
      checkb "second submit cached" true
        (Option.bind (J.member "cached" r2) J.to_bool = Some true);
      let c = fleet_counters path in
      checkb "dispatched" true (counter "fleet.dispatched" c >= 1);
      checkb "one hit" true (counter "service.cache_hit" c >= 1))

let test_fleet_portfolio () =
  with_fleet (fun path ->
      let envelope = { P.tenant = "race"; priority = 0; portfolio = true } in
      let r = rpc_ok path (submit_req "folio" ~seed:31 ~envelope) in
      let id = int_field "job" r in
      ignore (await path id);
      let c = fleet_counters path in
      checkb "raced" true (counter "fleet.portfolio_races" c >= 1);
      (* The portfolio result must not poison the cache: resubmitting
         without portfolio misses (portfolio winners are not cached). *)
      let r2 = rpc_ok path (submit_req "folio" ~seed:31) in
      checkb "portfolio result not cached" true
        (Option.bind (J.member "cached" r2) J.to_bool = Some false);
      ignore (await path (int_field "job" r2)))

let test_fleet_kill_worker_requeues_once () =
  with_fleet (fun path ->
      (* A job slow enough to catch mid-flight: many runs of the tiny
         circuit are still fast, so use a bigger builtin. *)
      let submit =
        P.Submit
          {
            name = "victim";
            format = P.Bench;
            netlist = builtin_bench "s5378";
            options = Core.Kway.Options.make ~runs:6 ~seed:3 ();
            envelope = P.default_envelope;
          }
      in
      let r = rpc_ok path submit in
      let id = int_field "job" r in
      (* Find the busy worker's pid from fleet-stats and SIGKILL it. *)
      let rec find_busy tries =
        if tries = 0 then Alcotest.fail "no worker went busy"
        else
          let reply = rpc_ok path P.Fleet_stats in
          let workers =
            match
              Option.bind (J.member "fleet" reply) (J.member "workers")
            with
            | Some (J.List l) -> l
            | _ -> []
          in
          let busy =
            List.find_map
              (fun w ->
                match Option.bind (J.member "state" w) J.to_str with
                | Some "busy" -> Option.bind (J.member "pid" w) J.to_int
                | _ -> None)
              workers
          in
          match busy with
          | Some pid -> pid
          | None ->
              Thread.delay 0.05;
              find_busy (tries - 1)
      in
      let pid = find_busy 100 in
      Unix.kill pid Sys.sigkill;
      (* Exactly one terminal reply, with a real result: the requeue
         ran it on the surviving worker. *)
      ignore (await path id);
      checkb "requeued once" true
        (counter "service.requeues" (fleet_counters path) >= 1);
      (* The respawn happens after the supervisor's backoff, not before
         the job's reply — poll for it. *)
      let deadline = Unix.gettimeofday () +. 15.0 in
      let rec wait_restart () =
        if counter "service.worker_restarts" (fleet_counters path) >= 1 then ()
        else if Unix.gettimeofday () > deadline then
          Alcotest.fail "worker never respawned"
        else begin
          Thread.delay 0.2;
          wait_restart ()
        end
      in
      wait_restart ())

let test_fleet_disk_cache_restart () =
  match U.fpgapart_bin () with
  | None -> Alcotest.skip ()
  | Some _ ->
      let dir = temp_dir () in
      let config c = { c with Fleet.Scheduler.cache_dir = Some dir } in
      with_fleet ~config (fun path ->
          let r = rpc_ok path (submit_req "persist" ~seed:77) in
          ignore (await path (int_field "job" r)));
      (* Same cache dir, fresh fleet: the first submission must be
         served from disk without touching a worker. *)
      with_fleet ~config (fun path ->
          let r = rpc_ok path (submit_req "persist" ~seed:77) in
          checkb "served from disk" true
            (Option.bind (J.member "cached" r) J.to_bool = Some true);
          let c = fleet_counters path in
          checkb "disk hit counted" true
            (counter "fleet.disk_cache_hit" c >= 1);
          checkb "keys on disk" true
            (U.get J.to_int
               [ "fleet"; "disk_cache"; "len" ]
               (rpc_ok path P.Fleet_stats)
            >= 1))

let str_field name reply =
  match Option.bind (J.member name reply) J.to_str with
  | Some v -> v
  | None -> Alcotest.failf "reply lacks string field %S" name

let bool_field name reply = Option.bind (J.member name reply) J.to_bool

(* A reply that already carries the result is final; otherwise wait for
   the job it names. *)
let final_reply path reply =
  match J.member "result" reply with
  | Some _ -> reply
  | None -> await path (int_field "job" reply)

let resubmit_req ?(delta = []) key =
  P.Resubmit { name = "eco"; base = `Digest key; delta; options = None }

let slow_submit seed =
  P.Submit
    {
      name = Printf.sprintf "slow%d" seed;
      format = P.Bench;
      netlist = builtin_bench "s5378";
      options = Core.Kway.Options.make ~runs:6 ~seed ();
      envelope = P.default_envelope;
    }

let expect_error code reply =
  match C.ok_or_error reply with
  | Error (c, _) -> Alcotest.(check string) "error code" code c
  | Ok _ -> Alcotest.failf "expected a %s error" code

let test_fleet_resubmit_by_digest () =
  with_fleet (fun path ->
      let base = rpc_ok path (submit_req "eco" ~seed:11) in
      let base_doc = J.member "result" (await path (int_field "job" base)) in
      (* A cache hit spends a scheduler job id that no worker sees, so the
         scheduler's ids run ahead of the workers' from here on. *)
      let key = str_field "digest" base in
      ignore (rpc_ok path (submit_req "eco" ~seed:11));
      let delta = [ Netlist.Delta.Set_output { net = "c"; output = true } ] in
      let r = rpc_ok path (resubmit_req ~delta key) in
      checki "scheduler's job id" 3 (int_field "job" r);
      checkb "warm, not cold" true (bool_field "cold_fallback" r = Some false);
      ignore (final_reply path r);
      let status = rpc_ok path (P.Status 3) in
      Alcotest.(check string) "done" P.state_done (str_field "state" status);
      (* The empty delta is the base partition itself. *)
      let r = final_reply path (rpc_ok path (resubmit_req key)) in
      checki "next scheduler id" 4 (int_field "job" r);
      Alcotest.(check string)
        "base doc byte-identical"
        (J.to_string (Option.get base_doc))
        (J.to_string (Option.get (J.member "result" r))))

let test_fleet_cancel_dispatched () =
  with_fleet (fun path ->
      let before = counter "service.cancelled" (fleet_counters path) in
      let id = int_field "job" (rpc_ok path (slow_submit 41)) in
      let deadline = Unix.gettimeofday () +. 20.0 in
      let rec wait_running () =
        let st = str_field "state" (rpc_ok path (P.Status id)) in
        if String.equal st P.state_running then ()
        else if Unix.gettimeofday () > deadline then
          Alcotest.failf "job never dispatched (state %s)" st
        else begin
          Thread.delay 0.02;
          wait_running ()
        end
      in
      wait_running ();
      let c = rpc_ok path (P.Cancel id) in
      checkb "cancelling" true (bool_field "cancelling" c = Some true);
      (match C.rpc ~socket:path (P.Result { job = id; wait = true }) with
      | Ok reply -> expect_error P.code_cancelled reply
      | Error e -> Alcotest.fail e);
      Alcotest.(check string)
        "terminal state" P.state_cancelled
        (str_field "state" (rpc_ok path (P.Status id)));
      checki "service.cancelled advanced" (before + 1)
        (counter "service.cancelled" (fleet_counters path)))

(* ------------------------------------------------------------------ *)
(* Portfolio races                                                    *)
(* ------------------------------------------------------------------ *)

let race_envelope = { P.tenant = "race"; priority = 0; portfolio = true }

let builtin_submit ?(envelope = P.default_envelope) ~runs ~seed name =
  P.Submit
    {
      name;
      format = P.Bench;
      netlist = builtin_bench name;
      options = Core.Kway.Options.make ~runs ~seed ();
      envelope;
    }

let total_cost reply =
  U.get J.to_float [ "result"; "result"; "total_cost" ] reply

(* The workers' (state, pid, socket) triples from fleet-stats. *)
let worker_states path =
  let reply = rpc_ok path P.Fleet_stats in
  match Option.bind (J.member "fleet" reply) (J.member "workers") with
  | Some (J.List l) ->
      List.map
        (fun w ->
          let field name conv default =
            Option.value ~default (Option.bind (J.member name w) conv)
          in
          ( field "state" J.to_str "",
            field "pid" J.to_int (-1),
            field "socket" J.to_str "" ))
        l
  | _ -> []

let wait_all_workers path state =
  U.poll_until ~timeout:20.0
    (Printf.sprintf "every worker %s" state)
    (fun () ->
      List.for_all
        (fun (s, _, _) -> String.equal s state)
        (worker_states path))

(* The cost of c5315 ([runs:1], [seed]) run plain on every worker
   through its private socket; the workers must agree. *)
let plain_cost path seed =
  match
    List.map
      (fun (_, _, socket) ->
        total_cost
          (final_reply socket
             (rpc_ok socket (builtin_submit ~runs:1 ~seed "c5315"))))
      (worker_states path)
  with
  | cost :: rest ->
      List.iter
        (Alcotest.(check (float 0.)) "same cost on every worker" cost)
        rest;
      cost
  | [] -> Alcotest.fail "no workers"

(* Race c5315 ([runs:1], [seed]) on both workers; its cost. *)
let race_cost path seed =
  wait_all_workers path "idle";
  total_cost
    (final_reply path
       (rpc_ok path
          (builtin_submit ~envelope:race_envelope ~runs:1 ~seed "c5315")))

let race_seeds = [ 1; 2; 3; 4 ]

(* Leg [i] of a race runs seed [seed + i * 65537], and a race must return
   its cheapest leg: [race_cost path s] must equal the cheaper of
   [plain_cost path s] and [plain_cost path (s + 65537)]. *)
let check_cheapest path raced =
  List.iter2
    (fun seed cost ->
      Alcotest.(check (float 0.))
        (Printf.sprintf "seed %d: the cheaper leg wins" seed)
        (Float.min (plain_cost path seed) (plain_cost path (seed + 65537)))
        cost)
    race_seeds raced;
  let c = fleet_counters path in
  checki "one race per seed" (List.length race_seeds)
    (counter "fleet.portfolio_races" c);
  checki "every race won" (List.length race_seeds)
    (counter "fleet.portfolio_won" c)

(* Warmed: both derived seeds first run on every worker through its
   private socket, so each leg is a cache hit on its worker. The fleet's
   own cache holds none of these keys. *)
let test_fleet_portfolio_cheapest () =
  with_fleet (fun path ->
      List.iter
        (fun seed ->
          ignore (plain_cost path seed);
          ignore (plain_cost path (seed + 65537)))
        race_seeds;
      check_cheapest path (List.map (race_cost path) race_seeds))

(* Cold: the same races with no leg cached anywhere, so the legs finish
   apart. Every leg runs to the end, so the race still settles on the
   cheapest; the plain runs that price the legs come after the races. *)
let test_fleet_portfolio_cheapest_cold () =
  with_fleet (fun path ->
      check_cheapest path (List.map (race_cost path) race_seeds))

let busy_pids path =
  List.filter_map
    (fun (s, pid, _) -> if String.equal s "busy" then Some pid else None)
    (worker_states path)

(* Start a slow race and wait until it holds both workers. *)
let start_slow_race path =
  wait_all_workers path "idle";
  let id =
    int_field "job"
      (rpc_ok path
         (builtin_submit ~envelope:race_envelope ~runs:6 ~seed:5 "s5378"))
  in
  U.poll_until ~timeout:20.0 "both workers racing" (fun () ->
      List.length (busy_pids path) = 2);
  id

let test_fleet_portfolio_cancel () =
  with_fleet (fun path ->
      let before = counter "service.cancelled" (fleet_counters path) in
      let id = start_slow_race path in
      let c = rpc_ok path (P.Cancel id) in
      checkb "cancelling" true (bool_field "cancelling" c = Some true);
      (match C.rpc ~socket:path (P.Result { job = id; wait = true }) with
      | Ok reply -> expect_error P.code_cancelled reply
      | Error e -> Alcotest.fail e);
      Alcotest.(check string)
        "terminal state" P.state_cancelled
        (str_field "state" (rpc_ok path (P.Status id)));
      checki "service.cancelled advanced" (before + 1)
        (counter "service.cancelled" (fleet_counters path));
      wait_all_workers path "idle")

let test_fleet_portfolio_all_lost () =
  with_fleet (fun path ->
      let before = counter "service.requeues" (fleet_counters path) in
      let id = start_slow_race path in
      List.iter (fun pid -> Unix.kill pid Sys.sigkill) (busy_pids path);
      (match C.rpc ~socket:path (P.Result { job = id; wait = true }) with
      | Ok reply -> expect_error P.code_worker_lost reply
      | Error e -> Alcotest.fail e);
      checki "a race is never requeued" before
        (counter "service.requeues" (fleet_counters path)))

let health_int name path =
  match Option.bind (J.member "health" (rpc_ok path P.Health)) (J.member name) with
  | Some v -> Option.get (J.to_int v)
  | None -> Alcotest.failf "health lacks %s" name

let test_fleet_refusal_spends_no_id () =
  let config (c : Fleet.Scheduler.config) =
    { c with service = { c.service with queue_cap = 1 } }
  in
  with_fleet ~config (fun path ->
      (* Distinct slow jobs: two run, one queues, the next is refused. *)
      let rec fill seed accepted =
        if seed > 60 then Alcotest.fail "the fleet never refused a job"
        else
          match C.rpc ~socket:path (slow_submit seed) with
          | Error e -> Alcotest.fail e
          | Ok reply -> (
              match C.ok_or_error reply with
              | Ok r -> fill (seed + 1) (int_field "job" r :: accepted)
              | Error (code, _) ->
                  Alcotest.(check string) "refusal" P.code_overloaded code;
                  List.rev accepted)
      in
      let accepted = fill 1 [] in
      let n = List.length accepted in
      checki "jobs_total counts accepted jobs only" n
        (health_int "jobs_total" path);
      List.iter (fun id -> ignore (rpc_ok path (P.Cancel id))) accepted;
      List.iter
        (fun id -> ignore (C.rpc ~socket:path (P.Result { job = id; wait = true })))
        accepted;
      let r = rpc_ok path (submit_req "after" ~seed:99) in
      checki "next id follows the accepted ones" (n + 1) (int_field "job" r);
      ignore (await path (n + 1)))

let test_fleet_bad_delta_counted () =
  with_fleet (fun path ->
      let base = rpc_ok path (submit_req "eco" ~seed:13) in
      ignore (await path (int_field "job" base));
      let before = counter "service.bad_requests" (fleet_counters path) in
      (match
         C.rpc ~socket:path
           (resubmit_req
              ~delta:[ Netlist.Delta.Remove_cell "no_such_cell" ]
              (str_field "digest" base))
       with
      | Ok reply -> expect_error P.code_bad_request reply
      | Error e -> Alcotest.fail e);
      checki "service.bad_requests advanced" (before + 1)
        (counter "service.bad_requests" (fleet_counters path)))

(* ------------------------------------------------------------------ *)
(* Acceptance through the CLI: fpgapart serve --workers N             *)
(* ------------------------------------------------------------------ *)

(* A 4-worker fleet takes 1000 concurrent jobs from 32 clients over 4
   tenants; the load generator itself exits 1 on a lost or duplicated
   reply or a p99 over the budget. *)
let test_cli_loadgen () =
  let cache = temp_dir () in
  U.with_daemon ~workers:4
    [ "--workers"; "4"; "--queue-cap"; "512"; "--cache-dir"; cache ]
    (fun d ->
      let h = U.run_json [ "svc-health"; "--socket"; d.U.socket ] in
      Alcotest.(check string)
        "accepting" "accepting" (U.get J.to_str [ "state" ] h);
      Alcotest.(check int) "workers" 4 (U.get J.to_int [ "workers" ] h);
      Alcotest.(check int) "workers up" 4 (U.get J.to_int [ "workers_up" ] h);
      let loadgen =
        match Sys.getenv_opt "FPGAPART_LOADGEN" with
        | Some p -> p
        | None -> Alcotest.fail "no loadgen binary (set FPGAPART_LOADGEN)"
      in
      let code, out, err =
        U.run ~exe:loadgen
          [ "--socket"; d.U.socket; "--jobs"; "1000"; "--clients"; "32";
            "--tenants"; "4"; "--seeds"; "2"; "--p99-ms"; "30000" ]
      in
      if code <> 0 then Alcotest.failf "loadgen exited %d: %s" code err;
      let s = U.parse_json "loadgen summary" out in
      List.iter
        (fun (name, want) ->
          Alcotest.(check int) name want (U.get J.to_int [ name ] s))
        [ ("jobs", 1000); ("received", 1000); ("lost", 0); ("duplicated", 0) ])

(* One worker behind the scheduler answers byte-for-byte what the
   single-process daemon answers. Its fleet-stats document carries the
   documented key set. *)
let test_cli_one_worker_is_the_daemon () =
  let submit d =
    U.run_ok
      [ "submit"; "--socket"; d.U.socket; "--circuit"; "c1355"; "--seed";
        "9" ]
  in
  U.with_daemon [] (fun solo ->
      U.with_daemon ~workers:1
        [ "--workers"; "1"; "--cache-dir"; temp_dir () ]
        (fun one ->
          let stats = U.run_json [ "fleet-stats"; "--socket"; one.U.socket ] in
          checkb "artifact" true
            (U.has_field "artifact" (J.String "service.fleet_stats") stats);
          List.iter
            (fun k -> checkb ("fleet stats has " ^ k) true (U.has_key k stats))
            [ "workers"; "tenants"; "queue_len"; "tenant_cap"; "inflight";
              "cache"; "disk_cache"; "restarts"; "corrupt_skipped"; "obs" ];
          Alcotest.(check string)
            "--workers 1 reply byte-identical to the daemon's" (submit solo)
            (submit one)))

(* A fleet writes the per-job lifecycle trace the daemon writes. Each
   job's lane carries the front end's decode, canonicalise, queue_wait
   and partition spans; encode_reply is the daemon executor's span, and
   the fleet's workers run untraced. *)
let test_cli_fleet_trace () =
  let bench = U.temp ".bench" and trace = U.temp ".trace.json" in
  Out_channel.with_open_bin bench (fun oc ->
      output_string oc
        (Netlist.Bench_format.to_string (Netlist.Generator.c17 ())));
  U.with_daemon ~workers:1 [ "--workers"; "1"; "--trace"; trace ] (fun d ->
      List.iter
        (fun seed ->
          ignore
            (U.run_ok
               [ "submit"; "--socket"; d.U.socket; "--bench"; bench;
                 "--seed"; seed ]))
        [ "1"; "2" ]);
  let text = U.read_file trace in
  List.iter
    (fun job ->
      Alcotest.(check (list string))
        (Printf.sprintf "job %d lifecycle spans" job)
        [ "canonicalise"; "decode"; "partition"; "queue_wait" ]
        (List.sort compare (U.lane_spans text job)))
    [ 1; 2 ];
  List.iter Sys.remove [ bench; trace ]

(* A setting serve cannot honour is a usage error: exit 1 before the
   socket is bound. The disk cache needs a fleet (a daemon's cache
   entry holds in-memory resubmit context), and tenant weights must be
   usable: 1..64-character tenants, each weighted once. *)
let test_cli_serve_usage_errors () =
  List.iter
    (fun (what, args, names) ->
      let socket = U.temp_socket () in
      let code, _, err = U.run ([ "serve"; "--socket"; socket ] @ args) in
      checki (what ^ ": exit 1") 1 code;
      checkb (what ^ ": names " ^ names) true (U.contains ~sub:names err);
      checkb (what ^ ": socket never bound") false (Sys.file_exists socket))
    [
      ("--cache-dir without --workers", [ "--cache-dir"; temp_dir () ],
        "--cache-dir");
      ( "a tenant weighted twice",
        [ "--tenant-weight"; "a=1"; "--tenant-weight"; "a=5" ],
        "weighted twice" );
      ( "a 65-character tenant",
        [ "--workers"; "1"; "--tenant-weight"; String.make 65 't' ^ "=2" ],
        "1..64 characters" );
    ]

(* A 2-worker fleet scrapes as valid OpenMetrics, with one labelled
   sample per worker in the per-worker gauges, every worker up. Its
   stats, health and fleet-stats documents and its gauges carry their
   keys in the documented order. *)
let test_cli_fleet_exposition () =
  let text =
    U.with_daemon ~workers:2 [ "--workers"; "2"; "--queue-cap"; "8" ]
      (fun d ->
        ignore
          (U.run_ok
             [ "submit"; "--socket"; d.U.socket; "--circuit"; "c1355";
               "--runs"; "2"; "--seed"; "1" ]);
        let doc verb = U.run_json [ verb; "--socket"; d.U.socket ] in
        U.check_keys "svc-stats" U.stats_keys (doc "svc-stats");
        U.check_keys "svc-health" (U.health_keys ~fleet:true)
          (doc "svc-health");
        let fleet = doc "fleet-stats" in
        U.check_keys "fleet-stats" U.fleet_stats_keys fleet;
        (match J.member "workers" fleet with
        | Some (J.List [ w0; w1 ]) ->
            U.check_keys "worker 0" U.fleet_worker_keys w0;
            U.check_keys "worker 1" U.fleet_worker_keys w1
        | _ -> Alcotest.fail "fleet-stats lists no two workers");
        U.run_ok [ "svc-metrics"; "--socket"; d.U.socket ])
  in
  let m =
    match U.Openmetrics.check text with
    | Ok m -> m
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check (list string))
    "gauge families in order" (U.gauge_families ~fleet:true)
    (U.Openmetrics.gauges m);
  List.iter
    (fun (family, typ) ->
      Alcotest.(check (option string))
        family (Some typ)
        (List.assoc_opt family m.U.Openmetrics.types))
    [ ("fpgapart_fleet_worker_up", "gauge");
      ("fpgapart_fleet_worker_restarts", "gauge");
      ("fpgapart_fleet_workers", "gauge");
      ("fpgapart_service_e2e_seconds", "histogram") ];
  let samples = U.Openmetrics.samples m in
  let workers = [ {|worker="0"|}; {|worker="1"|} ] in
  Alcotest.(check (list string))
    "restarts per worker" workers
    (List.map fst (samples "fpgapart_fleet_worker_restarts"));
  Alcotest.(check (list (pair string (float 0.))))
    "every worker up"
    (List.map (fun w -> (w, 1.0)) workers)
    (samples "fpgapart_fleet_worker_up");
  Alcotest.(check (list (pair string (float 0.))))
    "two workers" [ ("", 2.0) ]
    (samples "fpgapart_fleet_workers")

let () =
  Random.self_init ();
  Alcotest.run "fleet"
    [
      ( "fair queue",
        [
          Alcotest.test_case "weighted interleave" `Quick
            test_fair_queue_weights;
          Alcotest.test_case "priorities and position" `Quick
            test_fair_queue_priorities;
          Alcotest.test_case "per-tenant backpressure" `Quick
            test_fair_queue_backpressure;
          QCheck_alcotest.to_alcotest test_fair_queue_conservation;
        ] );
      ( "disk cache",
        [
          Alcotest.test_case "roundtrip and reload" `Quick
            test_disk_cache_roundtrip;
          Alcotest.test_case "corrupt record skipped" `Quick
            test_disk_cache_corrupt_record_skipped;
          Alcotest.test_case "torn tail recovery" `Quick
            test_disk_cache_torn_tail;
          Alcotest.test_case "rot after open" `Quick
            test_disk_cache_rot_after_open;
          Alcotest.test_case "torn tail cut" `Quick
            test_disk_cache_torn_tail_cut;
        ] );
      ( "client retry",
        [
          Alcotest.test_case "backoff schedule" `Quick test_backoff_schedule;
          Alcotest.test_case "connection refused retries" `Quick
            test_retry_connection_refused;
        ] );
      ( "stale socket",
        [ Alcotest.test_case "bind probe" `Quick test_stale_socket_bind ] );
      ( "batch",
        [
          Alcotest.test_case "submit-batch roundtrip" `Slow
            test_submit_batch_roundtrip;
        ] );
      ( "fleet",
        [
          Alcotest.test_case "end to end with cache" `Slow
            test_fleet_end_to_end;
          Alcotest.test_case "portfolio racing" `Slow test_fleet_portfolio;
          Alcotest.test_case "SIGKILL worker requeues once" `Slow
            test_fleet_kill_worker_requeues_once;
          Alcotest.test_case "disk cache survives restart" `Slow
            test_fleet_disk_cache_restart;
          Alcotest.test_case "resubmit by digest" `Slow
            test_fleet_resubmit_by_digest;
          Alcotest.test_case "cancel a dispatched job" `Slow
            test_fleet_cancel_dispatched;
          Alcotest.test_case "refused submit spends no job id" `Slow
            test_fleet_refusal_spends_no_id;
          Alcotest.test_case "bad-delta resubmit counted" `Slow
            test_fleet_bad_delta_counted;
          Alcotest.test_case "portfolio picks the cheapest leg" `Slow
            test_fleet_portfolio_cheapest;
          Alcotest.test_case "portfolio picks the cheapest leg (cold)" `Slow
            test_fleet_portfolio_cheapest_cold;
          Alcotest.test_case "a cancel reaches every leg" `Slow
            test_fleet_portfolio_cancel;
          Alcotest.test_case "every racing worker lost" `Slow
            test_fleet_portfolio_all_lost;
        ] );
      ( "fleet cli",
        [
          Alcotest.test_case "loadgen 1000 jobs" `Slow test_cli_loadgen;
          Alcotest.test_case "one worker equals the daemon" `Slow
            test_cli_one_worker_is_the_daemon;
          Alcotest.test_case "fleet writes --trace" `Slow test_cli_fleet_trace;
          Alcotest.test_case "serve usage errors" `Quick
            test_cli_serve_usage_errors;
          Alcotest.test_case "fleet exposition" `Slow
            test_cli_fleet_exposition;
        ] );
    ]
