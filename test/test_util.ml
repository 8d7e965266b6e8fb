(* Shared fixtures for the test suites. *)

let spec ?(area = 1) ?(demand = [||]) name inputs outputs supports =
  {
    Hypergraph.s_name = name;
    s_area = area;
    s_demand = demand;
    s_inputs = Array.of_list inputs;
    s_outputs = Array.of_list outputs;
    s_supports = Array.of_list supports;
  }

(* The engine's flat form of a hypergraph, which partition states read. *)
let flat = Hypergraph.Flat.of_hypergraph

(* A gate under an invented name. *)
let gate b kind fanins =
  Netlist.Circuit.Builder.gate b ~name:(Netlist.Circuit.Builder.fresh_name b)
    kind fanins

(* A deterministic random hypergraph: [n_cells] cells, each with 1-3
   outputs and 1-4 inputs drawn from earlier nets; a handful of driverless
   "primary" nets are external. *)
let random_hypergraph seed n_cells =
  let rng = Netlist.Rng.create seed in
  let next_net = ref 0 in
  let fresh_net () =
    let n = !next_net in
    incr next_net;
    n
  in
  let n_primary = 4 + Netlist.Rng.int rng 4 in
  let primary = List.init n_primary (fun _ -> fresh_net ()) in
  let available = ref (Array.of_list primary) in
  let specs = ref [] in
  for k = 0 to n_cells - 1 do
    let n_out = 1 + Netlist.Rng.int rng 3 in
    let n_in = 1 + Netlist.Rng.int rng 4 in
    (* Distinct input nets per cell, as real mapped CLBs have (the paper's
       per-pin cut vectors assume it). *)
    let picks = Netlist.Rng.sample rng n_in (Array.length !available) in
    let inputs = Array.map (fun k -> !available.(k)) picks in
    let outputs = Array.init n_out (fun _ -> fresh_net ()) in
    let supports =
      Array.init n_out (fun _ ->
          let m = ref Bitvec.empty in
          for i = 0 to n_in - 1 do
            if Netlist.Rng.bool rng then m := Bitvec.add i !m
          done;
          !m)
    in
    for o = 0 to n_out - 1 do
      if Bitvec.is_empty supports.(o) then
        supports.(o) <- Bitvec.singleton (Netlist.Rng.int rng n_in)
    done;
    for i = 0 to n_in - 1 do
      if not (Array.exists (fun s -> Bitvec.mem i s) supports) then begin
        let o = Netlist.Rng.int rng n_out in
        supports.(o) <- Bitvec.add i supports.(o)
      end
    done;
    specs :=
      spec (Printf.sprintf "c%d" k) (Array.to_list inputs)
        (Array.to_list outputs) (Array.to_list supports)
      :: !specs;
    available := Array.append !available outputs
  done;
  Hypergraph.create ~num_nets:!next_net ~external_nets:primary (List.rev !specs)

(* Any subset of the full mask. *)
let random_mask rng full =
  Bitvec.fold
    (fun i acc -> if Netlist.Rng.bool rng then Bitvec.add i acc else acc)
    full Bitvec.empty

(* Reconstruction of the paper's Fig. 4 worked example. The cell M (id 0)
   has five inputs i1..i5 and two outputs X1, X2 with A_X1 = {i1,i3,i4,i5}
   and A_X2 = {i2}. i1 and i2 are driven from side B (cut, critical);
   i3..i5 are driven on side A (uncut, critical); X1 is read on A (uncut,
   critical); X2 is read on B (cut, critical). The paper's numbers:
   initial cut 3; single move gain -1 (cut 4); functional replication gain
   +2 (cut 1), with X2 (output index 1) migrating; traditional
   replication gain -2. *)
let fig4_hypergraph () =
  (* nets: 0..4 = i1..i5, 5 = X1, 6 = X2, 7..8 = reader outputs *)
  let no_input_cell name out = spec name [] [ out ] [ Bitvec.empty ] in
  Hypergraph.create ~num_nets:9 ~external_nets:[ 7; 8 ]
    [
      spec "M" [ 0; 1; 2; 3; 4 ] [ 5; 6 ]
        [ Bitvec.of_list [ 0; 2; 3; 4 ]; Bitvec.of_list [ 1 ] ];
      (* cell 0 *)
      no_input_cell "D1" 0;
      (* cell 1, side B *)
      no_input_cell "D2" 1;
      (* cell 2, side B *)
      no_input_cell "D3" 2;
      (* cell 3, side A *)
      no_input_cell "D4" 3;
      (* cell 4, side A *)
      no_input_cell "D5" 4;
      (* cell 5, side A *)
      spec "RX1" [ 5 ] [ 7 ] [ Bitvec.of_list [ 0 ] ];
      (* cell 6, side A *)
      spec "RX2" [ 6 ] [ 8 ] [ Bitvec.of_list [ 0 ] ];
      (* cell 7, side B *)
    ]

(* Cells D1, D2 and RX2 on side B, the rest on A. *)
let fig4_state () =
  let h = fig4_hypergraph () in
  let on_b = function 1 | 2 | 7 -> true | _ -> false in
  (h, Partition_state.create (flat h) ~init_on_b:on_b)

(* The delta of setting cell [c]'s mask to [m] in a fresh scratch: the
   allocating form of [Partition_state.eval_into] the tests compare. *)
let eval st c m =
  let sc = Partition_state.make_scratch () in
  Partition_state.eval_into st c m sc;
  sc

(* Words allocated while [f ()] runs, less what an empty measurement
   reads. [Gc.minor_words] is current at every call (unlike
   [Gc.quick_stat], which only advances at a collection); [Gc.counters]
   adds what went straight to the major heap. *)
let words_during f =
  let measure f =
    let _, p0, j0 = Gc.counters () in
    let m0 = Gc.minor_words () in
    f ();
    let m1 = Gc.minor_words () in
    let _, p1, j1 = Gc.counters () in
    m1 -. m0 +. (j1 -. j0) -. (p1 -. p0)
  in
  measure f -. measure ignore

(* ------------------------------------------------------------------ *)
(* The built fpgapart binary and its daemons                          *)
(* ------------------------------------------------------------------ *)

module J = Obs.Json

(* dune passes the binary's path in FPGAPART_BIN; a run from
   _build/default/test finds it next door. *)
let fpgapart_bin () =
  match Sys.getenv_opt "FPGAPART_BIN" with
  | Some p when Sys.file_exists p -> Some p
  | _ ->
      let guess = Filename.concat (Sys.getcwd ()) "../bin/fpgapart.exe" in
      if Sys.file_exists guess then Some guess else None

let fpgapart () =
  match fpgapart_bin () with
  | Some p -> p
  | None -> Alcotest.fail "no fpgapart binary (set FPGAPART_BIN)"

(* Children inherit the caller's environment, so runs execute at the
   outer FPGAPART_JOBS; a variable in [env] replaces the inherited one,
   and FPGAPART_FM_ORACLE is never inherited, only set by a caller. *)
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

let temp suffix = Filename.temp_file "fpgapart-test" suffix

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Start [exe args] (default exe: fpgapart) with stdout and stderr
   written to the given files (default: discarded). *)
let spawn ?(exe = fpgapart ()) ?(env = []) ?(stdout = "/dev/null")
    ?(stderr = "/dev/null") args =
  let fd path =
    Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o600
  in
  let out = fd stdout and err = fd stderr in
  let pid =
    Unix.create_process_env exe
      (Array.of_list (exe :: args))
      (Array.of_list (child_env env))
      Unix.stdin out err
  in
  Unix.close out;
  Unix.close err;
  pid

let wait_exit pid =
  match snd (Unix.waitpid [] pid) with Unix.WEXITED n -> n | _ -> -1

(* Run [exe args] to completion: its exit code, stdout and stderr. *)
let run ?exe ?env args =
  let out = temp ".out" and err = temp ".err" in
  let code = wait_exit (spawn ?exe ?env ~stdout:out ~stderr:err args) in
  let o = read_file out and e = read_file err in
  Sys.remove out;
  Sys.remove err;
  (code, o, e)

(* [run], failing unless the command exits 0; its stdout. *)
let run_ok ?env args =
  match run ?env args with
  | 0, out, _ -> out
  | code, _, err ->
      Alcotest.failf "fpgapart %s exited %d: %s" (String.concat " " args) code
        err

let parse_json what text =
  match J.of_string text with
  | Ok j -> j
  | Error e -> Alcotest.failf "%s: %s" what e

(* [run_ok], its stdout parsed as JSON. *)
let run_json args = parse_json (String.concat " " args) (run_ok args)

(* The value under a path of object keys, converted. *)
let get conv keys doc =
  match
    Option.bind
      (List.fold_left (fun d k -> Option.bind d (J.member k)) (Some doc) keys)
      conv
  with
  | Some v -> v
  | None -> Alcotest.failf "document lacks %s" (String.concat "." keys)

let rec has_key k = function
  | J.Obj fields -> List.exists (fun (k', v) -> k = k' || has_key k v) fields
  | J.List items -> List.exists (has_key k) items
  | _ -> false

(* Some object in the document maps [k] to [v]. *)
let rec has_field k v = function
  | J.Obj fields ->
      List.exists
        (fun (k', v') -> (k = k' && v = v') || has_field k v v')
        fields
  | J.List items -> List.exists (has_field k v) items
  | _ -> false

let temp_socket () =
  let path = temp ".sock" in
  Sys.remove path;
  path

let poll_until ~timeout what ready =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec loop () =
    if not (ready ()) then
      if Unix.gettimeofday () > deadline then
        Alcotest.failf "timed out after %.0fs waiting for %s" timeout what
      else begin
        Unix.sleepf 0.05;
        loop ()
      end
  in
  loop ()

let workers_up socket =
  match Service.Client.rpc ~socket Service.Protocol.Health with
  | Error _ -> 0
  | Ok reply ->
      Option.value ~default:0
        (Option.bind
           (Option.bind (J.member "health" reply) (J.member "workers_up"))
           J.to_int)

let wait_workers_up socket n =
  poll_until ~timeout:20.0
    (Printf.sprintf "%d workers up on %s" n socket)
    (fun () -> workers_up socket >= n)

type daemon = { socket : string; pid : int; mutable exit : int option }

(* svc-shutdown, then the daemon's exit code once it has drained. *)
let stop_daemon d =
  match d.exit with
  | Some code -> code
  | None ->
      (* A daemon that does not answer is killed rather than waited on. *)
      let code, _, _ = run [ "svc-shutdown"; "--socket"; d.socket ] in
      if code <> 0 then Unix.kill d.pid Sys.sigkill;
      let code = wait_exit d.pid in
      d.exit <- Some code;
      code

(* [f] on [fpgapart serve --socket S args] once S is bound and, with
   [~workers], that many fleet workers report up. The daemon must then
   shut down cleanly. *)
let with_daemon ?(workers = 0) args f =
  let socket = temp_socket () in
  let pid = spawn ("serve" :: "--socket" :: socket :: args) in
  let d = { socket; pid; exit = None } in
  let r =
    Fun.protect
      ~finally:(fun () -> ignore (stop_daemon d))
      (fun () ->
        poll_until ~timeout:15.0 ("a daemon bound to " ^ socket) (fun () ->
            Sys.file_exists socket);
        if workers > 0 then wait_workers_up socket workers;
        f d)
  in
  Alcotest.(check int) "daemon exit code" 0 (stop_daemon d);
  r

(* ------------------------------------------------------------------ *)
(* The service's state documents and per-job trace                    *)
(* ------------------------------------------------------------------ *)

(* The top-level keys of the [stats], [health] and [fleet-stats]
   documents and the gauge families of [metrics], in the order both
   servers render them; a fleet's pool follows the front end's own. *)
let stats_keys =
  [ "schema_version"; "artifact"; "queue_len"; "queue_cap"; "cache"; "obs" ]

let health_keys ~fleet =
  [ "state"; "protocol_version"; "stats_schema_version"; "uptime_secs";
    "queue_depth"; "queue_cap"; "inflight"; "cache"; "jobs_total" ]
  @ if fleet then [ "workers"; "workers_up" ] else []

let fleet_stats_keys =
  [ "schema_version"; "artifact"; "workers"; "tenants"; "queue_len";
    "tenant_cap"; "inflight"; "cache"; "disk_cache"; "obs" ]

let fleet_worker_keys = [ "id"; "state"; "pid"; "restarts"; "socket" ]

(* Without a disk cache, and once a tenant has queued. *)
let gauge_families ~fleet =
  List.map (( ^ ) "fpgapart_")
    ([ "queue_depth"; "queue_capacity"; "inflight_jobs"; "cache_entries";
       "cache_capacity"; "cache_hit_ratio"; "jobs_registered";
       "uptime_seconds"; "gc_heap_words"; "gc_major_collections";
       "gc_minor_collections" ]
    @
    if fleet then
      [ "fleet_workers"; "fleet_worker_up"; "fleet_worker_restarts";
        "fleet_tenant_queue_depth" ]
    else [])

let check_keys what expected doc =
  Alcotest.(check (list string))
    (what ^ " keys in order") expected
    (match doc with J.Obj fields -> List.map fst fields | _ -> [])

(* The span names on job [pid]'s lane of a Chrome trace-event document,
   in file order; every complete span must have a non-negative
   duration. *)
let lane_spans text pid =
  let events =
    match
      Option.bind (Result.to_option (J.of_string text)) (J.member "traceEvents")
    with
    | Some (J.List evs) -> evs
    | _ -> Alcotest.fail "trace lacks traceEvents"
  in
  List.filter_map
    (fun ev ->
      match
        ( Option.bind (J.member "ph" ev) J.to_str,
          Option.bind (J.member "pid" ev) J.to_int )
      with
      | Some "X", Some p when p = pid ->
          (match Option.bind (J.member "dur" ev) J.to_float with
          | Some d ->
              Alcotest.(check bool) "span duration >= 0" true (d >= 0.0)
          | None -> Alcotest.fail "complete event lacks dur");
          Option.bind (J.member "name" ev) J.to_str
      | _ -> None)
    events

(* ------------------------------------------------------------------ *)
(* OpenMetrics exposition rules                                       *)
(* ------------------------------------------------------------------ *)

let contains ~sub s =
  let n = String.length sub in
  let rec at i =
    i + n <= String.length s && (String.sub s i n = sub || at (i + 1))
  in
  at 0

module Openmetrics = struct
  type t = {
    types : (string * string) list;  (** family -> type *)
    samples : (string * string * float) list;  (** name, labels, value *)
  }

  let samples t name =
    List.filter_map
      (fun (n, labels, v) -> if n = name then Some (labels, v) else None)
      t.samples

  let gauges t =
    List.filter_map
      (fun (family, typ) -> if typ = "gauge" then Some family else None)
      t.types

  let sample_re =
    Str.regexp {|^\([a-zA-Z_:][a-zA-Z0-9_:]*\)\({\([^}]*\)}\)? \([^ ]+\)$|}

  let suffixes = [ ""; "_total"; "_bucket"; "_count"; "_sum" ]

  (* The structure rules: "# EOF" ends the text; each family is declared
     by one "# TYPE" line before any of its samples; a counter samples
     under *_total; a histogram has _sum, _count and cumulative buckets
     whose +Inf bucket equals _count. *)
  let check text =
    let fail fmt = Printf.ksprintf failwith fmt in
    let declared types name =
      List.exists
        (fun suffix ->
          String.ends_with ~suffix name
          && List.mem_assoc
               (String.sub name 0 (String.length name - String.length suffix))
               types)
        suffixes
    in
    let line (types, samples) l =
      if String.starts_with ~prefix:"# TYPE " l then
        match String.split_on_char ' ' l with
        | [ _; _; family; typ ] when not (List.mem_assoc family types) ->
            ((family, typ) :: types, samples)
        | _ -> fail "malformed or repeated TYPE line: %s" l
      else if l = "" || String.starts_with ~prefix:"# HELP " l then
        (types, samples)
      else if not (Str.string_match sample_re l 0) then
        fail "unparseable sample line: %s" l
      else
        let name = Str.matched_group 1 l in
        let labels = try Str.matched_group 3 l with Not_found -> "" in
        match float_of_string_opt (Str.matched_group 4 l) with
        | None -> fail "unparseable sample value: %s" l
        | Some _ when not (declared types name) ->
            fail "sample before its # TYPE: %s" l
        | Some v -> (types, (name, labels, v) :: samples)
    in
    let histogram t family =
      let need suffix =
        match samples t (family ^ suffix) with
        | [] -> fail "no samples for %s%s" family suffix
        | s -> s
      in
      ignore (need "_sum");
      let buckets = need "_bucket" and count = snd (List.hd (need "_count")) in
      ignore
        (List.fold_left
           (fun prev (labels, v) ->
             if v < prev then
               fail "%s: non-cumulative bucket {%s}" family labels;
             v)
           0.0 buckets);
      let is_inf (labels, _) = contains ~sub:{|le="+Inf"|} labels in
      match List.find_opt is_inf buckets with
      | None -> fail "%s: no +Inf bucket" family
      | Some (_, inf) when inf <> count ->
          fail "%s: +Inf %g <> count %g" family inf count
      | Some _ -> ()
    in
    match List.rev (String.split_on_char '\n' text) with
    | "" :: "# EOF" :: body -> (
        try
          let types, rev = List.fold_left line ([], []) (List.rev body) in
          let t = { types = List.rev types; samples = List.rev rev } in
          List.iter
            (fun (family, typ) ->
              if typ = "counter" && samples t (family ^ "_total") = [] then
                fail "no samples for %s_total" family;
              if typ = "histogram" then histogram t family)
            t.types;
          Ok t
        with Failure e -> Error e)
    | _ -> Error "missing # EOF terminator"
end
