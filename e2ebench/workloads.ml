(* The four workloads. Each one makes its inputs from the seed, sets up
   (several times, reporting the median), then runs jobs in a closed loop
   until the run's seconds are spent, checking every output with the
   independent oracle. Only public functions that the CLI and the daemon
   call are used; the program receives nothing but generated [.bench]
   text (or, for resubmits, a netlist delta).

   Quality and allocation figures (cost, IOBs, words allocated, the
   result digest) are computed over a fixed prefix of each workload's job
   sequence, which every run completes even past its deadline, so they
   are functions of the seed and the code, not of machine speed. *)

module J = Obs.Json
module P = Service.Protocol
module Kway = Core.Kway

let ( let* ) = Result.bind
let wall = Obs.Clock.wall

type size = Full | Smoke

type ctx = {
  seed : int;
  seconds : float;
  trace_dir : string option;  (** [Some dir]: the traced run, artifacts go here *)
  worker_exe : string;  (** the fpgapart binary fleet workers exec *)
  scratch : string;  (** directory for sockets, relative to the cwd *)
  size : size;
}

type outcome = {
  attempted : int;
  failures : string list;
  digest : string;
  metrics : Metrics.metric list;
}

(* ------------------------------------------------------------------ *)
(* Tally of one run                                                   *)
(* ------------------------------------------------------------------ *)

type quality = {
  q_devices : string;
  q_cost : float;
  q_iobs : int;
  q_cells : int;
  q_terminals : int;
}

type tally = {
  lock : Mutex.t;
  quality_n : int;  (** jobs in the fixed prefix *)
  mutable attempted : int;
  mutable failures : string list;
  mutable latencies : float list;  (** seconds; +inf for a failed job *)
  mutable quality : (int * quality) list;
  mutable oracle_words : float;  (** words the oracle allocated inside the loop *)
  mutable oracle_cpu : float;  (** CPU seconds the oracle used inside the loop *)
  mutable job_words : float list;
      (** one-caller loops: words each prefix job allocated, oracle excluded *)
  mutable job_cpu : float list;
      (** one-caller loops: CPU seconds of each prefix job, oracle excluded *)
  mutable start_words : float;  (** allocation counter when the loop began *)
  mutable prefix_words : float option;
      (** concurrent loops: words allocated by the time the prefix's last
          job was recorded, since overlapping jobs cannot be told apart *)
}

let tally ~quality_n =
  {
    lock = Mutex.create ();
    quality_n;
    attempted = 0;
    failures = [];
    latencies = [];
    quality = [];
    oracle_words = 0.0;
    oracle_cpu = 0.0;
    job_words = [];
    job_cpu = [];
    start_words = 0.0;
    prefix_words = None;
  }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* [verdict] is the checked job: [Ok (Some q)] joins the quality figures
   when [index] lies in the prefix. *)
let record t ~index ~latency verdict =
  locked t (fun () ->
      t.attempted <- t.attempted + 1;
      (match verdict with
      | Ok q -> (
          t.latencies <- latency :: t.latencies;
          match q with
          | Some q when index < t.quality_n -> t.quality <- (index, q) :: t.quality
          | _ -> ())
      | Error msg ->
          t.latencies <- infinity :: t.latencies;
          t.failures <- Printf.sprintf "job %d: %s" index msg :: t.failures);
      if t.attempted = t.quality_n then
        t.prefix_words <- Some (Layers.allocated_words () -. t.start_words))

let fail t msg = locked t (fun () -> t.failures <- msg :: t.failures)

let quality_of_result (r : Kway.result) =
  let devices = List.map (fun p -> p.Kway.device) r.Kway.parts in
  {
    q_devices =
      String.concat "," (List.map (fun d -> d.Fpga.Device.name) devices);
    q_cost = r.Kway.summary.Fpga.Cost.total_cost;
    q_iobs = r.Kway.summary.Fpga.Cost.total_iobs;
    q_cells = r.Kway.total_cells;
    q_terminals =
      List.fold_left (fun a d -> a + d.Fpga.Device.terminals) 0 devices;
  }

(* The oracle has already accepted [doc], so every field is present. *)
let quality_of_reply ~library doc =
  let res = Option.get (J.member "result" doc) in
  let int k = Option.get (Option.bind (J.member k res) J.to_int) in
  let names =
    match J.member "parts" res with
    | Some (J.List ps) ->
        List.filter_map (fun p -> Option.bind (J.member "device" p) J.to_str) ps
    | _ -> []
  in
  let terminals name =
    match Verify.library_device library name with
    | Some d -> d.Fpga.Device.terminals
    | None -> 0
  in
  {
    q_devices = String.concat "," names;
    q_cost = Option.get (Option.bind (J.member "total_cost" res) J.to_float);
    q_iobs = int "total_iobs";
    q_cells = int "total_cells";
    q_terminals = List.fold_left (fun a n -> a + terminals n) 0 names;
  }

(* Several results counted as one job (a pass over the suite). *)
let merge_quality a b =
  match (a, b) with
  | None, q | q, None -> q
  | Some a, Some b ->
      Some
        {
          q_devices = a.q_devices ^ ";" ^ b.q_devices;
          q_cost = a.q_cost +. b.q_cost;
          q_iobs = a.q_iobs + b.q_iobs;
          q_cells = a.q_cells + b.q_cells;
          q_terminals = a.q_terminals + b.q_terminals;
        }

let quality_rows t = List.sort (fun (a, _) (b, _) -> compare a b) t.quality

let digest t =
  quality_rows t
  |> List.map (fun (i, q) ->
         Printf.sprintf "%d|%s|%.2f|%d\n" i q.q_devices q.q_cost q.q_iobs)
  |> String.concat "" |> Digest.string |> Digest.to_hex

let end_to_end ~setup t =
  let open Metrics in
  let q = List.map snd (quality_rows t) in
  let sum f = List.fold_left (fun a x -> a +. f x) 0.0 q in
  let nq = List.length q in
  (* The median job is immune to eco-resubmit's occasional cold
     fallback; the fleet's overlapping jobs only allow a mean. *)
  let words =
    match t.job_words with
    | [] ->
        Option.fold ~none:nan
          ~some:(fun w -> w /. float_of_int t.quality_n)
          t.prefix_words
    | l -> median l
  in
  [
    metric "setup_s" "s" ~n:(List.length setup) (median setup);
    metric "latency_p50_ms" "ms" ~n:(List.length t.latencies)
      (1000.0 *. median t.latencies);
    metric "cpu_s_per_job" "s" ~n:(List.length t.job_cpu)
      (if t.job_cpu = [] then 0.0 else median t.job_cpu);
    metric "alloc_mw_per_job" "Mw" ~n:t.quality_n (words /. 1e6);
    metric "cost_per_cell" "usd/cell" ~n:nq
      (sum (fun q -> q.q_cost) /. sum (fun q -> float_of_int q.q_cells));
    metric "iob_util" "ratio" ~n:nq
      (sum (fun q -> float_of_int q.q_iobs)
      /. sum (fun q -> float_of_int q.q_terminals));
  ]

let outcome ~metrics t =
  {
    attempted = t.attempted;
    failures = List.rev t.failures;
    digest = digest t;
    metrics;
  }

(* Set up at least three times and for at least two seconds in all,
   teardowns included (up to 400 times), each set-up torn down before the
   next starts, so that a set-up of a few milliseconds still gets a steady
   median. The last one is kept; returns it with every set-up's wall time.
   A traced run reports no set-up time and sets up once. *)
let timed_setup ctx ~boot ~teardown =
  let start = wall () in
  let enough times =
    match (ctx.size, ctx.trace_dir) with
    | Full, None ->
        let n = List.length times in
        n >= 400 || (n >= 3 && wall () -. start >= 2.0)
    | _ -> true
  in
  let rec go times prev =
    Option.iter teardown prev;
    let t0 = wall () in
    let s = boot () in
    let times = (wall () -. t0) :: times in
    if enough times then (s, times) else go times (Some s)
  in
  go [] None

(* Run the oracle inside a one-caller loop, keeping its allocation and CPU
   time out of the jobs' figures. *)
let checked t f =
  let w0 = Layers.allocated_words () and c0 = Layers.cpu_seconds () in
  let v = f () in
  t.oracle_words <- t.oracle_words +. (Layers.allocated_words () -. w0);
  t.oracle_cpu <- t.oracle_cpu +. (Layers.cpu_seconds () -. c0);
  v

(* A closed loop with one caller: job [i] starts once job [i - 1] is
   checked, until the prefix is done and [seconds] have passed. *)
let timed_loop t ~seconds f =
  let t0 = wall () in
  let i = ref 0 in
  while !i < t.quality_n || wall () -. t0 < seconds do
    let w0 = Layers.allocated_words () and o0 = t.oracle_words in
    let c0 = Layers.cpu_seconds () and oc0 = t.oracle_cpu in
    f !i;
    if !i < t.quality_n then begin
      t.job_words <-
        (Layers.allocated_words () -. w0 -. (t.oracle_words -. o0)) :: t.job_words;
      t.job_cpu <-
        (Layers.cpu_seconds () -. c0 -. (t.oracle_cpu -. oc0)) :: t.job_cpu
    end;
    incr i
  done

let write_artifacts ctx ~workload ~(ledger : Layers.t) ms =
  match ctx.trace_dir with
  | None -> ()
  | Some dir ->
      let path suffix = Filename.concat dir (workload ^ suffix) in
      Obs.Trace.write ~path:(path ".engine.trace.json") ledger.Layers.obs;
      Out_channel.with_open_bin (path ".layers.txt") (fun oc ->
          output_string oc (Layers.table ~workload ms))

(* ------------------------------------------------------------------ *)
(* In-process jobs: the CLI path, and the daemon's path replayed      *)
(* ------------------------------------------------------------------ *)

type job = {
  circuit : Netlist.Circuit.t;  (** as mapped (canonical on the service path) *)
  hg : Hypergraph.t;
  result : Kway.result;
  secs : float;  (** wall time of the job itself, bookkeeping excluded *)
}

(* Per-job front-half counts, plus a replay of the mapper's three stages
   outside the timed path (Mapper.map stays one call). *)
let account (l : Layers.t) ~input_bytes ~(map_options : Techmap.Mapper.options)
    circuit (mapped : Techmap.Mapped.t) hg (r : Kway.result) =
  Layers.add l "netlist.input_mb" (float_of_int input_bytes /. 1e6);
  Layers.count l "techmap.clbs" (Array.length mapped.Techmap.Mapped.clbs);
  Layers.count l "hypergraph.cells" (Hypergraph.num_cells hg);
  Layers.count l "hypergraph.nets" hg.Hypergraph.num_nets;
  Layers.count l "hypergraph.pins" (Hypergraph.pins hg);
  Layers.count l "core.replicated_cells" r.Kway.replicated_cells;
  let st name f = Layers.stage (Some l) name f in
  let d = st "techmap.decompose" (fun () -> Techmap.Decompose.run circuit) in
  let cover =
    st "techmap.cover" (fun () ->
        Techmap.Cover.run ~k:map_options.Techmap.Mapper.lut_inputs d)
  in
  ignore
    (st "techmap.pack" (fun () ->
         Techmap.Pack.run ~pair:map_options.Techmap.Mapper.pair
           ~pair_disjoint:map_options.Techmap.Mapper.pair_disjoint d cover));
  Layers.job_done l

let encode ?ledger result =
  ignore
    (Layers.stage ledger "experiments.encode" (fun () ->
         J.to_string (Experiments.Obs_report.result_to_json result)))

(* bytes -> parse -> map -> hypergraph -> partition -> check -> encode:
   the [fpgapart partition] path. [canonical] inserts the daemon's
   canonicalisation, making this the service's submit path. *)
let run_job ?ledger ?(canonical = false) ~map_options ~library ~options text =
  let st name f = Layers.stage ledger name f in
  let t0 = wall () in
  let* circuit = st "netlist.parse" (fun () -> Netlist.Bench_format.parse text) in
  let circuit =
    if canonical then Service.Digest.canonical_circuit circuit else circuit
  in
  let mapped =
    st "techmap.map" (fun () -> Techmap.Mapper.map ~options:map_options circuit)
  in
  let hg = st "hypergraph.create" (fun () -> Techmap.Mapper.to_hypergraph mapped) in
  let* result =
    st "core.partition" (fun () ->
        Kway.partition ~obs:(Layers.sink ledger) ~options ~library hg)
  in
  let* () = st "core.check" (fun () -> Kway.check hg result) in
  encode ?ledger result;
  let secs = wall () -. t0 in
  Option.iter
    (fun l ->
      account l ~input_bytes:(String.length text) ~map_options circuit mapped hg
        result)
    ledger;
  Ok { circuit; hg; result; secs }

(* The daemon's resubmit path: apply the delta to the base's canonical
   circuit, remap, project the base partition, warm-start (falling back
   to a cold run exactly when the daemon does). *)
let resubmit_job ?ledger ~library ~options ~(base : job) delta =
  let st name f = Layers.stage ledger name f in
  let t0 = wall () in
  let* edited =
    Result.map_error Netlist.Delta.error_to_string
      (st "netlist.delta_apply" (fun () -> Netlist.Delta.apply base.circuit delta))
  in
  let mapped = st "techmap.map" (fun () -> Techmap.Mapper.map edited) in
  let hg = st "hypergraph.create" (fun () -> Techmap.Mapper.to_hypergraph mapped) in
  let base_parts = base.result.Kway.parts in
  let proj =
    st "hypergraph.project" (fun () ->
        let labels, replicated = Kway.labels_of_parts base.hg base_parts in
        Projection.project ~base:base.hg ~base_labels:labels
          ~base_dirty:replicated hg)
  in
  let warm =
    {
      Kway.w_labels = proj.Projection.labels;
      w_dirty = proj.Projection.dirty;
      w_devices = Array.of_list (List.map (fun p -> p.Kway.device) base_parts);
    }
  in
  let obs = Layers.sink ledger in
  let* result =
    match
      st "core.warm_start" (fun () ->
          Kway.warm_start ~obs ~options ~library ~warm hg)
    with
    | Ok r when Result.is_ok (st "core.check" (fun () -> Kway.check hg r)) ->
        Ok r
    | Error msg when String.equal msg Kway.cancelled -> Error msg
    | Ok _ | Error _ ->
        st "core.partition" (fun () -> Kway.partition ~obs ~options ~library hg)
  in
  encode ?ledger result;
  let secs = wall () -. t0 in
  Option.iter
    (fun l ->
      Layers.count l "hypergraph.dirty_cells"
        (Array.fold_left (fun a d -> if d then a + 1 else a) 0 proj.Projection.dirty);
      let input_bytes =
        String.length (J.to_compact_string (P.delta_to_json delta))
      in
      account l ~input_bytes ~map_options:Techmap.Mapper.default_options edited
        mapped hg result)
    ledger;
  Ok { circuit = edited; hg; result; secs }

let check_job ~library = function
  | Error msg -> Error msg
  | Ok j ->
      let* () = Verify.result ~library j.hg j.result in
      Ok (Some (quality_of_result j.result))

let latency_of = function Ok j -> j.secs | Error _ -> infinity

(* A replayed job must reproduce the daemon's reply: the same scrubbed
   result document, byte for byte. *)
let same_as_reply (j : job) reply_doc =
  let mine =
    Obs.Snapshot.scrub_elapsed (Experiments.Obs_report.result_to_json j.result)
  in
  match J.member "result" reply_doc with
  | Some theirs
    when String.equal (J.to_compact_string mine) (J.to_compact_string theirs) ->
      Ok ()
  | _ -> Error "in-process replay disagrees with the service reply"

(* Traced half of a run: replay each job untraced and again under a
   ledger, alternating which goes first so warm-up favours neither.
   Returns the ledger, the tracing overhead and the process's peak heap
   (this is the run's last phase). *)
let traced_replay t ~library jobs =
  let ledger = Layers.create () in
  let run ?ledger (index, job, expect) =
    let r = job ?ledger () in
    let verdict =
      let* q = check_job ~library r in
      let* () =
        match (r, expect) with
        | Ok j, Some doc -> same_as_reply j doc
        | _ -> Ok ()
      in
      Ok q
    in
    record t ~index ~latency:(latency_of r) verdict;
    latency_of r
  in
  let plain, traced =
    List.fold_left
      (fun (plain, traced) (k, j) ->
        if k mod 2 = 0 then
          let p = run j in
          (plain +. p, traced +. run ~ledger j)
        else
          let tr = run ~ledger j in
          (plain +. run j, traced +. tr))
      (0.0, 0.0)
      (List.mapi (fun k j -> (k, j)) jobs)
  in
  let heap = (Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8) in
  ( ledger,
    [
      Metrics.metric "trace.overhead_frac" "ratio" ~n:(List.length jobs)
        ((traced /. plain) -. 1.0);
      Metrics.metric "process.peak_heap_mb" "MiB" (float_of_int heap /. 1048576.0);
    ] )

(* ------------------------------------------------------------------ *)
(* Daemons                                                            *)
(* ------------------------------------------------------------------ *)

type daemon = { socket : string; thread : Thread.t }

let start_daemon ~socket run =
  let ready = Atomic.make false and failed = Atomic.make None in
  let thread =
    Thread.create
      (fun () ->
        match run (fun () -> Atomic.set ready true) with
        | Ok () -> ()
        | Error msg -> Atomic.set failed (Some msg))
      ()
  in
  let deadline = wall () +. 30.0 in
  let rec wait () =
    if Atomic.get ready then { socket; thread }
    else
      match Atomic.get failed with
      | Some msg ->
          Thread.join thread;
          failwith ("daemon: " ^ msg)
      | None when wall () > deadline -> failwith "daemon: never became ready"
      | None ->
          Thread.delay 0.001;
          wait ()
  in
  wait ()

let stop_daemon d =
  ignore (Service.Client.rpc ~socket:d.socket P.Shutdown);
  Thread.join d.thread

let socket_path ctx tag =
  Filename.concat ctx.scratch (Printf.sprintf "%s-%d.sock" tag (Unix.getpid ()))

let rpc conn req =
  match Service.Client.request conn req with
  | Error msg -> Error ("transport: " ^ msg)
  | Ok reply ->
      Result.map_error
        (fun (code, msg) -> code ^ ": " ^ msg)
        (Service.Client.ok_or_error reply)

let int_field k j = Option.bind (J.member k j) J.to_int

(* Send a submit or resubmit and wait for its final reply. Returns the
   first reply (it carries [cached]) and the final one (it carries
   [timings] and the [result] document). *)
let complete conn req =
  let* first = rpc conn req in
  match J.member "result" first with
  | Some _ -> Ok (first, first)
  | None -> (
      match int_field "job" first with
      | None -> Error "reply lacks a job id"
      | Some job ->
          let* final = rpc conn (P.Result { job; wait = true }) in
          Ok (first, final))

let result_doc final =
  Option.to_result ~none:"reply lacks a result" (J.member "result" final)

let with_conn socket f =
  match Service.Client.connect socket with
  | Error msg -> Error ("connect: " ^ msg)
  | Ok conn ->
      Fun.protect ~finally:(fun () -> Service.Client.close conn) (fun () -> f conn)

let timing k reply =
  Option.value ~default:0 (Option.bind (J.member "timings" reply) (int_field k))

let p50 l = if l = [] then 0.0 else Metrics.median l
let p90 l = if l = [] then 0.0 else Metrics.percentile 0.9 l

(* A counter of the Obs snapshot found under [path] in a stats reply. *)
let obs_counter reply path k =
  let snap = List.fold_left (fun j p -> Option.bind j (J.member p)) (Some reply) path in
  Option.value ~default:0
    (Option.bind (Option.bind snap (J.member "counters")) (int_field k))

(* One answered request as the caller saw it. *)
type reply_obs = { latency : float; hit : bool; final : J.t }

(* Service-layer figures shared by the two daemon workloads, from each
   reply's [timings] and the caller-observed latency. *)
let service_metrics replies =
  let open Metrics in
  let n = List.length replies in
  let fresh = List.filter (fun r -> not r.hit) replies in
  let hits = List.filter (fun r -> r.hit) replies in
  let nf = List.length fresh in
  let tm k = List.map (fun r -> float_of_int (timing k r.final)) fresh in
  let latency_ms l = List.map (fun r -> 1000.0 *. r.latency) l in
  let overhead =
    List.map
      (fun r -> (1000.0 *. r.latency) -. float_of_int (timing "run_ms" r.final))
      fresh
  in
  [
    metric "service.decode_ms_p50" "ms" ~n:nf (p50 (tm "decode_ms"));
    metric "service.run_ms_p50" "ms" ~n:nf (p50 (tm "run_ms"));
    metric "service.encode_ms_p50" "ms" ~n:nf (p50 (tm "encode_ms"));
    metric "service.queue_wait_ms_p90" "ms" ~n:nf (p90 (tm "queue_wait_ms"));
    metric "service.overhead_ms_p50" "ms" ~n:nf (p50 overhead);
    metric "service.cache_hit_ratio" "ratio" ~n
      (float_of_int (List.length hits) /. float_of_int (max 1 n));
    metric "service.hit_latency_ms_p50" "ms" ~n:(List.length hits)
      (p50 (latency_ms hits));
    metric "service.latency_p90_ms" "ms" ~n (p90 (latency_ms replies));
  ]

(* ------------------------------------------------------------------ *)
(* paper-suite                                                        *)
(* ------------------------------------------------------------------ *)

(* The nine MCNC-profile circuits of Table II through the CLI path: flat
   driver, XC3000, functional replication T=1. A job is one pass, the
   nine netlists to nine checked results (the per-suite CPU figure of the
   paper's Table IV); each pass re-partitions every circuit at a fresh
   seed. One multi-start run per circuit keeps a pass near eight seconds,
   so a run holds three. *)
let paper_suite ctx =
  let circuits =
    match ctx.size with
    | Full ->
        List.map
          (fun e -> Lazy.force e.Experiments.Suite.circuit)
          (Experiments.Suite.all ())
    | Smoke ->
        let c1355 = Option.get (Experiments.Suite.find "c1355") in
        [ Netlist.Generator.c17 (); Lazy.force c1355.Experiments.Suite.circuit ]
  in
  let library = Fpga.Library.xc3000 in
  let boot () = List.map Netlist.Bench_format.to_string circuits in
  let texts, setup = timed_setup ctx ~boot ~teardown:ignore in
  let job pass text ?ledger () =
    let options =
      Kway.Options.make ~runs:1 ~seed:((ctx.seed * 100) + pass)
        ~replication:(`Functional 1) ()
    in
    run_job ?ledger ~map_options:Techmap.Mapper.default_options ~library
      ~options text
  in
  match ctx.trace_dir with
  | Some _ ->
      let t = tally ~quality_n:0 in
      let ledger, extra =
        traced_replay t ~library
          (List.mapi (fun k text -> (k, job 0 text, None)) texts)
      in
      let ms = Layers.metrics ledger @ extra in
      write_artifacts ctx ~workload:"paper-suite" ~ledger ms;
      outcome ~metrics:ms t
  | None ->
      let t = tally ~quality_n:3 in
      timed_loop t ~seconds:ctx.seconds (fun pass ->
          let results = List.map (fun text -> job pass text ()) texts in
          let verdict =
            checked t (fun () ->
                List.fold_left
                  (fun acc r ->
                    let* acc = acc in
                    let* q = check_job ~library r in
                    Ok (merge_quality acc q))
                  (Ok None) results)
          in
          let latency = List.fold_left (fun a r -> a +. latency_of r) 0.0 results in
          record t ~index:pass ~latency verdict);
      outcome ~metrics:(end_to_end ~setup t) t

(* ------------------------------------------------------------------ *)
(* rent-60k                                                           *)
(* ------------------------------------------------------------------ *)

(* The scale gates' device library, bench/scale_devices.json, embedded at
   build time. *)
let scale_library =
  lazy
    (match Result.bind (J.of_string Scale_devices.json) Fpga.Library.of_json with
    | Ok l -> l
    | Error msg -> failwith ("bench/scale_devices.json: " ^ msg))

(* Fresh Generator.scale circuits (about 32k mapped cells each) through
   the same CLI path with the multilevel V-cycle, the scale suite's mapper
   options and its device library. *)
let rent ctx =
  let gates, circuits =
    match ctx.size with Full -> (60_000, 3) | Smoke -> (2_000, 1)
  in
  let seed_of i = (ctx.seed * 16) + i in
  let boot () =
    List.init circuits (fun i ->
        Netlist.Bench_format.to_string
          (Netlist.Generator.scale ~name:(Printf.sprintf "rent%d" i)
             {
               Netlist.Generator.default_scale with
               sc_gates = gates;
               sc_seed = seed_of i;
             }))
  in
  let texts, setup = timed_setup ctx ~boot ~teardown:ignore in
  let texts = Array.of_list texts in
  let map_options =
    { Techmap.Mapper.default_options with pair_disjoint = false }
  in
  let library = Lazy.force scale_library in
  let job i ?ledger () =
    let k = i mod circuits in
    let options =
      Kway.Options.make ~runs:1 ~seed:(seed_of k)
        ~strategy:(Kway.Multilevel Kway.Options.default_multilevel) ()
    in
    run_job ?ledger ~map_options ~library ~options texts.(k)
  in
  match ctx.trace_dir with
  | Some _ ->
      let t = tally ~quality_n:0 in
      let jobs = List.init (min 2 circuits) (fun i -> (i, job i, None)) in
      let ledger, extra = traced_replay t ~library jobs in
      let ms = Layers.metrics ledger @ extra in
      write_artifacts ctx ~workload:"rent-60k" ~ledger ms;
      outcome ~metrics:ms t
  | None ->
      let t = tally ~quality_n:circuits in
      timed_loop t ~seconds:ctx.seconds (fun i ->
          let r = job i () in
          let verdict = checked t (fun () -> check_job ~library r) in
          record t ~index:i ~latency:(latency_of r) verdict);
      outcome ~metrics:(end_to_end ~setup t) t

(* ------------------------------------------------------------------ *)
(* eco-resubmit                                                       *)
(* ------------------------------------------------------------------ *)

(* 1% edits of s38584 resubmitted to an in-process solo daemon. One
   set-up boots the daemon, generates the edits (the workload's input)
   and submits the base circuit, waiting for its partition. *)
let eco ctx =
  let name, edits =
    match ctx.size with Full -> ("s38584", 24) | Smoke -> ("s5378", 2)
  in
  let entry = Option.get (Experiments.Suite.find name) in
  let circuit = Lazy.force entry.Experiments.Suite.circuit in
  let library = Fpga.Library.xc3000 in
  (* The base partition is a fixed input, like the circuit: the seed
     picks the edits. *)
  let options = Kway.Options.make ~runs:1 ~seed:1 () in
  let socket = socket_path ctx "eco" in
  let delta canonical i =
    Netlist.Delta.random ~seed:((ctx.seed * 1000) + i) ~frac:0.01 canonical
  in
  (* Edits past the pre-generated ones, for a machine fast enough to
     outrun them, are generated on demand. *)
  let late_canonical = lazy (Service.Digest.canonical_circuit circuit) in
  let trace_path =
    Option.map
      (fun dir -> Filename.concat dir "eco-resubmit.service.trace.json")
      ctx.trace_dir
  in
  let boot () =
    let text = Netlist.Bench_format.to_string circuit in
    let deltas = Array.init edits (delta (Service.Digest.canonical_circuit circuit)) in
    let cfg = { (Service.Server.default_config ~socket_path:socket) with trace_path } in
    let d = start_daemon ~socket (fun on_ready -> Service.Server.run ~on_ready cfg) in
    let submit =
      P.Submit
        {
          name;
          format = P.Bench;
          netlist = text;
          options;
          envelope = P.default_envelope;
        }
    in
    let base =
      with_conn socket (fun conn ->
          let* _, final = complete conn submit in
          let* doc = result_doc final in
          let* () = Verify.reply ~library doc in
          Option.to_result ~none:"base reply lacks a job id" (int_field "job" final))
    in
    match base with
    | Ok job -> (d, text, deltas, job)
    | Error msg ->
        stop_daemon d;
        failwith ("eco base submit: " ^ msg)
  in
  let (d, text, deltas, base_job), setup =
    timed_setup ctx ~boot ~teardown:(fun (d, _, _, _) -> stop_daemon d)
  in
  let t =
    tally
      ~quality_n:
        (match (ctx.size, ctx.trace_dir) with
        | Full, None -> 16
        | Full, Some _ -> 8
        | Smoke, _ -> edits)
  in
  let replies = ref [] in
  let seconds =
    match ctx.trace_dir with Some _ -> ctx.seconds /. 2.0 | None -> ctx.seconds
  in
  let run () =
    with_conn socket (fun conn ->
        timed_loop t ~seconds (fun i ->
            let delta =
              if i < edits then deltas.(i) else delta (Lazy.force late_canonical) i
            in
            let ts = wall () in
            let r =
              complete conn
                (P.Resubmit { name; base = `Job base_job; delta; options = None })
            in
            let latency = wall () -. ts in
            let verdict =
              checked t (fun () ->
                  let* _, final = r in
                  let* doc = result_doc final in
                  let* () = Verify.reply ~library doc in
                  replies := (i, doc, { latency; hit = false; final }) :: !replies;
                  Ok (Some (quality_of_reply ~library doc)))
            in
            record t ~index:i ~latency verdict);
        rpc conn P.Stats)
  in
  match Fun.protect ~finally:(fun () -> stop_daemon d) run with
  | Error msg ->
      fail t ("eco: " ^ msg);
      outcome ~metrics:[] t
  | Ok _ when ctx.trace_dir = None -> outcome ~metrics:(end_to_end ~setup t) t
  | Ok stats -> (
      let replies = List.rev !replies in
      let counter = obs_counter stats [ "stats"; "obs" ] in
      (* Warm-mode jobs the daemon had to redo cold do not count as warm. *)
      let warm_ratio =
        float_of_int
          (counter "service.resubmit_warm" - counter "service.resubmit_warm_failed")
        /. float_of_int (max 1 (counter "service.resubmit_requests"))
      in
      (* The warm basis: the daemon's base job, recomputed in process. *)
      match
        run_job ~canonical:true ~map_options:Techmap.Mapper.default_options ~library
          ~options text
      with
      | Error msg ->
          fail t ("eco replay base: " ^ msg);
          outcome ~metrics:[] t
      | Ok base ->
          let jobs =
            List.filteri (fun k _ -> k < 6) replies
            |> List.map (fun (i, doc, _) ->
                   ( i,
                     (fun ?ledger () ->
                       resubmit_job ?ledger ~library ~options ~base deltas.(i)),
                     Some doc ))
          in
          let ledger, extra = traced_replay t ~library jobs in
          let obs = List.map (fun (_, _, o) -> o) replies in
          let ms =
            Layers.metrics ledger @ extra @ service_metrics obs
            @ [
                Metrics.metric "service.warm_ratio" "ratio" ~n:(List.length obs)
                  warm_ratio;
              ]
          in
          write_artifacts ctx ~workload:"eco-resubmit" ~ledger ms;
          outcome ~metrics:ms t)

(* ------------------------------------------------------------------ *)
(* fleet-mix                                                          *)
(* ------------------------------------------------------------------ *)

type request = Fresh of { circuit : int; seed : int } | Repeat of int

(* The circuit and seed a request submits (a repeat resubmits its
   original's). *)
let source stream i =
  match stream.(i) with
  | Fresh { circuit; seed } -> (circuit, seed)
  | Repeat j -> (
      match stream.(j) with
      | Fresh { circuit; seed } -> (circuit, seed)
      | Repeat _ -> invalid_arg "repeat of a repeat")

(* Blocks of eight requests, shuffled within the block: two c1355 (fits
   one device, so the service dominates), four of the five mid-size
   circuits at fresh seeds, and two exact repeats of a fresh request
   10-40 positions earlier (cache hits) — a 25/50/25 mix. Repeats in the
   first blocks, with nothing old enough to repeat, are mid-size
   requests instead. *)
let fleet_stream ~seed ~len =
  let rng = Netlist.Rng.create ((seed * 7919) + 17) in
  let reqs = Array.make len (Repeat 0) in
  let fresh i circuit = Fresh { circuit; seed = (seed * 100_000) + i } in
  let mid i = fresh i (1 + Netlist.Rng.int rng 5) in
  for b = 0 to (len / 8) - 1 do
    let kinds = [| `Small; `Small; `Mid; `Mid; `Mid; `Mid; `Rep; `Rep |] in
    Netlist.Rng.shuffle rng kinds;
    Array.iteri
      (fun k kind ->
        let i = (8 * b) + k in
        reqs.(i) <-
          (match kind with
          | `Small -> fresh i 0
          | `Mid -> mid i
          | `Rep -> (
              let is_fresh j =
                j >= 0 && match reqs.(j) with Fresh _ -> true | Repeat _ -> false
              in
              match List.filter is_fresh (List.init 31 (fun d -> i - 10 - d)) with
              | [] -> mid i
              | l -> Repeat (List.nth l (Netlist.Rng.int rng (List.length l))))))
      kinds
  done;
  reqs

let fleet ctx =
  let names = [| "c1355"; "c5315"; "c6288"; "c7552"; "s5378"; "s9234" |] in
  let circuits =
    Array.map
      (fun n ->
        Lazy.force (Option.get (Experiments.Suite.find n)).Experiments.Suite.circuit)
      names
  in
  let workers, len, quality_n =
    match ctx.size with Full -> (2, 1000, 48) | Smoke -> (1, 4, 4)
  in
  let quality_n = if ctx.trace_dir = None then quality_n else min quality_n 16 in
  let library = Fpga.Library.xc3000 in
  let socket = socket_path ctx "fleet" in
  let boot () =
    let texts = Array.map Netlist.Bench_format.to_string circuits in
    let stream =
      match ctx.size with
      | Full -> fleet_stream ~seed:ctx.seed ~len
      | Smoke ->
          [|
            Fresh { circuit = 0; seed = ctx.seed };
            Fresh { circuit = 2; seed = ctx.seed };
            Repeat 0;
            Repeat 1;
          |]
    in
    let cfg =
      Fleet.Scheduler.default_config ~socket_path:socket ~workers
        ~worker_exe:ctx.worker_exe
    in
    let d = start_daemon ~socket (fun on_ready -> Fleet.Scheduler.run ~on_ready cfg) in
    let deadline = wall () +. 30.0 in
    let rec wait_up () =
      let up =
        match Service.Client.rpc ~socket P.Health with
        | Ok reply ->
            Option.value ~default:0
              (Option.bind (J.member "health" reply) (int_field "workers_up"))
        | Error _ -> 0
      in
      if up >= workers then ()
      else if wall () > deadline then begin
        stop_daemon d;
        failwith "fleet workers never came up"
      end
      else begin
        Thread.delay 0.002;
        wait_up ()
      end
    in
    wait_up ();
    (d, texts, stream)
  in
  let (d, texts, stream), setup =
    timed_setup ctx ~boot ~teardown:(fun (d, _, _) -> stop_daemon d)
  in
  let t = tally ~quality_n in
  let seconds =
    match ctx.trace_dir with Some _ -> ctx.seconds /. 2.0 | None -> ctx.seconds
  in
  let request i tenant =
    let circuit, seed = source stream i in
    P.Submit
      {
        name = names.(circuit);
        format = P.Bench;
        netlist = texts.(circuit);
        options = Kway.Options.make ~seed ();
        envelope = { P.tenant; priority = 0; portfolio = false };
      }
  in
  (* Result documents by stream index, for the cache-hit identity check. *)
  let docs = Array.make len `Pending in
  let cond = Condition.create () in
  let replies = ref [] in
  let next = Atomic.make 0 in
  let check i ~latency (first, final) =
    let* doc = result_doc final in
    let* () = Verify.reply ~library doc in
    let text = J.to_compact_string doc in
    let hit = Option.bind (J.member "cached" first) J.to_bool = Some true in
    locked t (fun () ->
        docs.(i) <- `Done text;
        replies := (i, doc, { latency; hit; final }) :: !replies;
        Condition.broadcast cond);
    match stream.(i) with
    | Fresh _ -> Ok (Some (quality_of_reply ~library doc))
    | Repeat j ->
        let original =
          locked t (fun () ->
              while docs.(j) = `Pending do
                Condition.wait cond t.lock
              done;
              docs.(j))
        in
        if original = `Done text then Ok None
        else Error (Printf.sprintf "repeat of job %d is not byte-identical to it" j)
  in
  t.start_words <- Layers.allocated_words ();
  let t0 = wall () in
  let client tenant () =
    let rec loop conn =
      let i = Atomic.fetch_and_add next 1 in
      if i < len && (i < quality_n || wall () -. t0 < seconds) then begin
        let ts = wall () in
        let r = complete conn (request i tenant) in
        let latency = wall () -. ts in
        let verdict = Result.bind r (check i ~latency) in
        if Result.is_error verdict then
          locked t (fun () ->
              if docs.(i) = `Pending then docs.(i) <- `Failed;
              Condition.broadcast cond);
        record t ~index:i ~latency verdict;
        loop conn
      end
      else Ok ()
    in
    match with_conn socket loop with
    | Ok () -> ()
    | Error msg -> fail t ("fleet client: " ^ msg)
  in
  let timed_wall, fleet_stats =
    Fun.protect
      ~finally:(fun () -> stop_daemon d)
      (fun () ->
        List.iter Thread.join
          (List.map (fun tenant -> Thread.create (client tenant) ()) [ "a"; "b" ]);
        (wall () -. t0, Service.Client.rpc ~socket P.Fleet_stats))
  in
  match ctx.trace_dir with
  | None -> outcome ~metrics:(end_to_end ~setup t) t
  | Some _ ->
      let replies = List.sort (fun (a, _, _) (b, _, _) -> compare a b) !replies in
      let obs = List.map (fun (_, _, o) -> o) replies in
      let counter k =
        match fleet_stats with
        | Ok reply -> float_of_int (obs_counter reply [ "fleet"; "obs" ] k)
        | Error _ -> 0.0
      in
      let fresh = List.filter (fun o -> not o.hit) obs in
      let busy_s =
        List.fold_left
          (fun a o -> a +. (float_of_int (timing "run_ms" o.final) /. 1000.0))
          0.0 fresh
      in
      let hop =
        List.map
          (fun o -> (1000.0 *. o.latency) -. float_of_int (timing "total_ms" o.final))
          obs
      in
      let fleet_ms =
        let open Metrics in
        [
          metric "fleet.hop_ms_p50" "ms" ~n:(List.length obs) (p50 hop);
          metric "fleet.worker_busy_frac" "ratio" ~n:(List.length fresh)
            (busy_s /. (float_of_int workers *. timed_wall));
          metric "fleet.requeues" "count" (counter "service.requeues");
          metric "fleet.worker_restarts" "count" (counter "service.worker_restarts");
        ]
      in
      (* Replay the first fresh requests in process on the service path. *)
      let jobs =
        List.filter
          (fun (i, _, _) -> match stream.(i) with Fresh _ -> true | Repeat _ -> false)
          replies
        |> List.filteri (fun k _ -> k < 8)
        |> List.map (fun (i, doc, _) ->
               let circuit, seed = source stream i in
               ( i,
                 (fun ?ledger () ->
                   run_job ?ledger ~canonical:true
                     ~map_options:Techmap.Mapper.default_options ~library
                     ~options:(Kway.Options.make ~seed ()) texts.(circuit)),
                 Some doc ))
      in
      let ledger, extra = traced_replay t ~library jobs in
      let ms = Layers.metrics ledger @ extra @ service_metrics obs @ fleet_ms in
      write_artifacts ctx ~workload:"fleet-mix" ~ledger ms;
      outcome ~metrics:ms t

let all =
  [
    ("paper-suite", paper_suite);
    ("rent-60k", rent);
    ("eco-resubmit", eco);
    ("fleet-mix", fleet);
  ]
