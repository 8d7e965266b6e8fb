(* Fleet load generator: hammer a running daemon (or fleet) with
   concurrent submissions across a tenant mix and assert delivery
   semantics — every submission gets exactly one terminal reply, no job
   id is ever issued twice, and the p99 submit-to-terminal latency stays
   under a bound. Prints a JSON summary; a broken assertion exits 1, so
   its caller (test_fleet) needs no parsing to fail.

   The job mix is deliberately cache-heavy (few distinct (circuit, seed)
   keys): the point is to stress the scheduler's queuing, fan-out and
   reply plumbing, not to burn CPU in the partitioner. A fraction of the
   submissions go through submit-batch frames so the batched path sees
   the same delivery assertions as the singles. *)

module J = Obs.Json
module P = Service.Protocol
module C = Service.Client

let socket = ref ""
let jobs = ref 1000
let clients = ref 32
let tenants = ref 4
let seeds = ref 2
let circuit = ref "c1355"
let p99_budget_ms = ref 10_000.0
let batch_every = ref 8  (* every Nth unit is a batch of [batch_size] *)
let batch_size = ref 4
let runs = ref 2

let args =
  [
    ("--socket", Arg.Set_string socket, "PATH daemon socket (required)");
    ("--jobs", Arg.Set_int jobs, "N total submissions (default 1000)");
    ("--clients", Arg.Set_int clients, "N client threads (default 32)");
    ("--tenants", Arg.Set_int tenants, "N distinct tenants (default 4)");
    ("--seeds", Arg.Set_int seeds, "N distinct seeds (default 2)");
    ("--circuit", Arg.Set_string circuit, "NAME builtin circuit (default c1355)");
    ("--p99-ms", Arg.Set_float p99_budget_ms,
     "MS p99 latency budget (default 10000)");
    ("--batch-every", Arg.Set_int batch_every,
     "N every Nth unit is a batch; 0 disables (default 8)");
    ("--batch-size", Arg.Set_int batch_size, "N circuits per batch (default 4)");
    ("--runs", Arg.Set_int runs, "N multi-start runs per job (default 2)");
  ]

let usage = "loadgen --socket PATH [options]"

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("loadgen: " ^ s); exit 1) fmt

(* One recorded delivery: the scheduler job id it was issued and the
   submit-to-terminal latency. *)
type delivery = { job_id : int; latency_ms : float; cached : bool }

type stats = {
  mutable deliveries : delivery list;
  mutable errors : (string * string) list;  (* (code, msg) terminal errors *)
  mutex : Mutex.t;
}

let record st d =
  Mutex.lock st.mutex;
  st.deliveries <- d :: st.deliveries;
  Mutex.unlock st.mutex

let record_error st code msg =
  Mutex.lock st.mutex;
  st.errors <- (code, msg) :: st.errors;
  Mutex.unlock st.mutex

let backoff = { C.Backoff.attempts = 10; base = 0.05; cap = 1.0; jitter = 0.5 }

let options ~seed = Core.Kway.Options.make ~runs:!runs ~seed ()

let tenant_of i = Printf.sprintf "tenant%d" (i mod !tenants)
let seed_of i = 1 + (i mod !seeds)

(* Split a submit reply: Ok (job_id, None) = queued, Ok (job_id, Some _)
   = served from cache, Error (code, msg) = typed refusal. *)
let parse_submit_reply reply =
  match C.ok_or_error reply with
  | Error (code, msg) -> Error (code, msg)
  | Ok reply -> (
      match Option.bind (J.member "job" reply) J.to_int with
      | None -> Error (P.code_bad_request, "reply lacks a job id")
      | Some id -> Ok (id, J.member "result" reply))

let parse_batch_item item =
  match J.member "error" item with
  | Some err ->
      let field k =
        Option.value ~default:"?" (Option.bind (J.member k err) J.to_str)
      in
      Error (field "code", field "msg")
  | None -> (
      match Option.bind (J.member "job" item) J.to_int with
      | None -> Error (P.code_bad_request, "batch item lacks a job id")
      | Some id -> Ok (id, J.member "result" item))

let await_result ~job_id =
  match C.rpc ~socket:!socket (P.Result { job = job_id; wait = true }) with
  | Error msg -> Error (P.code_worker_lost, msg)
  | Ok reply -> (
      match C.ok_or_error reply with
      | Error (code, msg) -> Error (code, msg)
      | Ok _ -> Ok ())

let run_single st ~netlist i =
  let envelope =
    { P.tenant = tenant_of i; priority = 0; portfolio = false }
  in
  let req =
    P.Submit
      {
        name = Printf.sprintf "%s-%d" !circuit i;
        format = P.Bench;
        netlist;
        options = options ~seed:(seed_of i);
        envelope;
      }
  in
  let t0 = Unix.gettimeofday () in
  match C.rpc_retry ~backoff ~socket:!socket req with
  | Error msg -> record_error st "transport" msg
  | Ok reply -> (
      match parse_submit_reply reply with
      | Error (code, msg) -> record_error st code msg
      | Ok (job_id, Some _) ->
          record st
            {
              job_id;
              latency_ms = (Unix.gettimeofday () -. t0) *. 1000.;
              cached = true;
            }
      | Ok (job_id, None) -> (
          match await_result ~job_id with
          | Ok () ->
              record st
                {
                  job_id;
                  latency_ms = (Unix.gettimeofday () -. t0) *. 1000.;
                  cached = false;
                }
          | Error (code, msg) -> record_error st code msg))

let run_batch st ~netlist i n =
  let envelope =
    { P.tenant = tenant_of i; priority = 0; portfolio = false }
  in
  let items =
    List.init n (fun k ->
        {
          P.b_name = Printf.sprintf "%s-%d-%d" !circuit i k;
          b_format = P.Bench;
          b_netlist = netlist;
          b_options = options ~seed:(seed_of (i + k));
        })
  in
  let t0 = Unix.gettimeofday () in
  match C.rpc_retry ~backoff ~socket:!socket (P.Submit_batch { items; envelope }) with
  | Error msg -> List.iter (fun _ -> record_error st "transport" msg) items
  | Ok reply -> (
      match C.ok_or_error reply with
      | Error (code, msg) ->
          List.iter (fun _ -> record_error st code msg) items
      | Ok reply -> (
          match J.member "items" reply with
          | Some (J.List replies) when List.length replies = n ->
              List.iter
                (fun item ->
                  (* Per-item replies use the same shape as submit, but
                     with the "ok" envelope stripped: an {"error": ...}
                     object or the submit fields directly. *)
                  match parse_batch_item item with
                  | Error (code, msg) -> record_error st code msg
                  | Ok (job_id, Some _) ->
                      record st
                        {
                          job_id;
                          latency_ms =
                            (Unix.gettimeofday () -. t0) *. 1000.;
                          cached = true;
                        }
                  | Ok (job_id, None) -> (
                      match await_result ~job_id with
                      | Ok () ->
                          record st
                            {
                              job_id;
                              latency_ms =
                                (Unix.gettimeofday () -. t0) *. 1000.;
                              cached = false;
                            }
                      | Error (code, msg) -> record_error st code msg))
                replies
          | _ ->
              List.iter
                (fun _ ->
                  record_error st P.code_bad_request "malformed batch reply")
                items))

let percentile sorted p =
  match Array.length sorted with
  | 0 -> 0.0
  | n -> sorted.(min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1))

let () =
  Arg.parse args (fun a -> die "unexpected argument %S" a) usage;
  if !socket = "" then die "--socket is required";
  if !jobs <= 0 || !clients <= 0 || !tenants <= 0 || !seeds <= 0 || !runs <= 0
  then die "--jobs/--clients/--tenants/--seeds/--runs must be positive";
  let netlist =
    match Experiments.Suite.find !circuit with
    | Some e ->
        Netlist.Bench_format.to_string (Lazy.force e.Experiments.Suite.circuit)
    | None -> die "unknown builtin circuit: %s" !circuit
  in
  let st =
    { deliveries = []; errors = []; mutex = Mutex.create () }
  in
  (* Carve the job ids into work units up front: every unit is either one
     single submission or one batch covering [batch_size] ids. *)
  let units = ref [] in
  let i = ref 0 in
  let unit_no = ref 0 in
  while !i < !jobs do
    let remaining = !jobs - !i in
    let is_batch =
      !batch_every > 0 && !batch_size > 1
      && !unit_no mod !batch_every = !batch_every - 1
      && remaining >= !batch_size
    in
    if is_batch then begin
      units := `Batch (!i, !batch_size) :: !units;
      i := !i + !batch_size
    end
    else begin
      units := `Single !i :: !units;
      incr i
    end;
    incr unit_no
  done;
  let units = Array.of_list (List.rev !units) in
  let next = ref 0 in
  let next_mutex = Mutex.create () in
  let take () =
    Mutex.lock next_mutex;
    let u =
      if !next < Array.length units then begin
        let u = Some units.(!next) in
        incr next;
        u
      end
      else None
    in
    Mutex.unlock next_mutex;
    u
  in
  let t_start = Unix.gettimeofday () in
  let worker () =
    let rec loop () =
      match take () with
      | None -> ()
      | Some (`Single i) ->
          run_single st ~netlist i;
          loop ()
      | Some (`Batch (i, n)) ->
          run_batch st ~netlist i n;
          loop ()
    in
    loop ()
  in
  let threads = List.init !clients (fun _ -> Thread.create worker ()) in
  List.iter Thread.join threads;
  let wall_secs = Unix.gettimeofday () -. t_start in
  let deliveries = st.deliveries in
  let ids = List.map (fun d -> d.job_id) deliveries in
  let distinct = List.sort_uniq compare ids in
  let received = List.length ids in
  let duplicated = received - List.length distinct in
  let lost = !jobs - received - List.length st.errors in
  let cache_hits =
    List.fold_left (fun n d -> if d.cached then n + 1 else n) 0 deliveries
  in
  let lat =
    Array.of_list (List.map (fun d -> d.latency_ms) deliveries)
  in
  Array.sort compare lat;
  let p50 = percentile lat 0.50 and p99 = percentile lat 0.99 in
  let errors_json =
    (* Terminal typed errors are delivery failures for this harness:
       the fleet under test is provisioned so that retry-after-overload
       always lands. Summarize by code. *)
    let tbl = Hashtbl.create 4 in
    List.iter
      (fun (code, _) ->
        Hashtbl.replace tbl code
          (1 + Option.value ~default:0 (Hashtbl.find_opt tbl code)))
      st.errors;
    Hashtbl.fold (fun code n acc -> (code, J.Int n) :: acc) tbl []
    |> List.sort compare
  in
  let summary =
    J.Obj
      [
        ("jobs", J.Int !jobs);
        ("clients", J.Int !clients);
        ("tenants", J.Int !tenants);
        ("received", J.Int received);
        ("lost", J.Int (max 0 lost));
        ("duplicated", J.Int duplicated);
        ("errors", J.Obj errors_json);
        ("cache_hits", J.Int cache_hits);
        ("p50_ms", J.Float p50);
        ("p99_ms", J.Float p99);
        ("wall_secs", J.Float wall_secs);
        ( "throughput_per_sec",
          J.Float (float_of_int received /. Float.max 1e-9 wall_secs) );
      ]
  in
  print_endline (J.to_compact_string summary);
  let fail = ref false in
  if received <> !jobs then begin
    Printf.eprintf "loadgen: FAIL %d submissions, %d terminal replies (%d typed errors)\n"
      !jobs received (List.length st.errors);
    List.iteri
      (fun k (code, msg) ->
        if k < 5 then Printf.eprintf "loadgen:   error[%s] %s\n" code msg)
      st.errors;
    fail := true
  end;
  if duplicated > 0 then begin
    Printf.eprintf "loadgen: FAIL %d duplicated job ids\n" duplicated;
    fail := true
  end;
  if p99 > !p99_budget_ms then begin
    Printf.eprintf "loadgen: FAIL p99 %.1f ms over budget %.1f ms\n" p99
      !p99_budget_ms;
    fail := true
  end;
  if !fail then exit 1
