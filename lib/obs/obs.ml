module Json = Json
module Log = Log
module Scrub = Scrub

module Clock = struct
  let wall = Unix.gettimeofday
  let cpu = Sys.time
end

(* ------------------------------------------------------------------ *)
(* Histogram buckets                                                  *)
(* ------------------------------------------------------------------ *)

(* Fixed signed log2 buckets: 0 alone, then [2^(b-1), 2^b - 1] per
   positive bucket b and its mirror image for negatives. The scheme is
   total over the int range and needs no configuration, so two sinks can
   always merge bucket-by-bucket. *)
let bucket_of v =
  if v = 0 then 0
  else if v = min_int then -63 (* abs would overflow; |min_int| = 2^62 *)
  else begin
    let mag = abs v in
    let rec log2 n acc = if n <= 1 then acc else log2 (n lsr 1) (acc + 1) in
    let b = 1 + log2 mag 0 in
    if v > 0 then b else -b
  end

let bucket_bounds b =
  (* bucket_of's image is [-63, 62] on 63-bit ints; indices beyond it
     clamp to the extreme buckets (1 lsl 62 would wrap). *)
  let b = if b > 62 then 62 else if b < -63 then -63 else b in
  if b = 0 then (0, 0)
  else if b > 0 then
    let lo = 1 lsl (b - 1) in
    let hi = if b >= 62 then max_int else (1 lsl b) - 1 in
    (lo, hi)
  else
    let b = -b in
    if b >= 63 then (min_int, min_int)
    else
      let lo = if b >= 62 then min_int + 1 else -((1 lsl b) - 1) in
      let hi = -(1 lsl (b - 1)) in
      (lo, hi)

let bucket_label b =
  let lo, hi = bucket_bounds b in
  if lo = hi then string_of_int lo else Printf.sprintf "[%d,%d]" lo hi

(* ------------------------------------------------------------------ *)
(* The collecting sink                                                *)
(* ------------------------------------------------------------------ *)

type hist = {
  mutable h_count : int;
  mutable h_sum : int;
  h_buckets : (int, int) Hashtbl.t; (* bucket index -> observation count *)
}

type gc_delta = {
  minor_words : float;
  major_words : float;
  minor_collections : int;
  major_collections : int;
}

type trace_span = {
  span_name : string;
  span_pid : int;
  span_tid : int;
  begin_secs : float;
  end_secs : float;
  gc : gc_delta;
}

type tracer = {
  epoch : float; (* wall-clock origin shared by every fork of the sink *)
  t_pid : int;
  t_tid : int;
  mutable spans_rev : trace_span list;
}

type collector = {
  counters : (string, int) Hashtbl.t;
  timers : (string, float) Hashtbl.t;
  histograms : (string, hist) Hashtbl.t;
  mutable events_rev : (string * (string * Json.t) list) list;
  mutable stack : string list; (* innermost span first *)
  tracer : tracer option;
}

type t = Noop | Active of collector

let noop = Noop

let create ?(trace = false) () =
  Active
    {
      counters = Hashtbl.create 32;
      timers = Hashtbl.create 32;
      histograms = Hashtbl.create 8;
      events_rev = [];
      stack = [];
      tracer =
        (if trace then
           Some { epoch = Clock.wall (); t_pid = 0; t_tid = 0; spans_rev = [] }
         else None);
    }

let enabled = function Noop -> false | Active _ -> true

let incr ?(by = 1) t name =
  match t with
  | Noop -> ()
  | Active c ->
      Hashtbl.replace c.counters name
        (by + (try Hashtbl.find c.counters name with Not_found -> 0))

let observe t name v =
  match t with
  | Noop -> ()
  | Active c ->
      let h =
        match Hashtbl.find_opt c.histograms name with
        | Some h -> h
        | None ->
            let h = { h_count = 0; h_sum = 0; h_buckets = Hashtbl.create 8 } in
            Hashtbl.add c.histograms name h;
            h
      in
      h.h_count <- h.h_count + 1;
      h.h_sum <- h.h_sum + v;
      let b = bucket_of v in
      Hashtbl.replace h.h_buckets b
        (1 + (try Hashtbl.find h.h_buckets b with Not_found -> 0))

let path c = String.concat "/" (List.rev c.stack)

let current_span = function Noop -> "" | Active c -> path c

let event t name fields =
  match t with
  | Noop -> ()
  | Active c ->
      let fields =
        match c.stack with
        | [] -> fields
        | _ -> ("span", Json.String (path c)) :: fields
      in
      c.events_rev <- (name, fields) :: c.events_rev

let fork ?pid ?track = function
  | Noop -> Noop
  | Active c ->
      Active
        {
          counters = Hashtbl.create 8;
          timers = Hashtbl.create 8;
          histograms = Hashtbl.create 8;
          events_rev = [];
          stack = c.stack;
          tracer =
            Option.map
              (fun tr ->
                {
                  tr with
                  t_pid = Option.value pid ~default:tr.t_pid;
                  t_tid = Option.value track ~default:tr.t_tid;
                  spans_rev = [];
                })
              c.tracer;
        }

let merge_into ~into child =
  match (into, child) with
  | Active parent, Active c ->
      Hashtbl.iter
        (fun k v ->
          Hashtbl.replace parent.counters k
            (v + (try Hashtbl.find parent.counters k with Not_found -> 0)))
        c.counters;
      Hashtbl.iter
        (fun k v ->
          Hashtbl.replace parent.timers k
            (v +. (try Hashtbl.find parent.timers k with Not_found -> 0.0)))
        c.timers;
      Hashtbl.iter
        (fun name h ->
          let ph =
            match Hashtbl.find_opt parent.histograms name with
            | Some ph -> ph
            | None ->
                let ph =
                  { h_count = 0; h_sum = 0; h_buckets = Hashtbl.create 8 }
                in
                Hashtbl.add parent.histograms name ph;
                ph
          in
          ph.h_count <- ph.h_count + h.h_count;
          ph.h_sum <- ph.h_sum + h.h_sum;
          Hashtbl.iter
            (fun b n ->
              Hashtbl.replace ph.h_buckets b
                (n + (try Hashtbl.find ph.h_buckets b with Not_found -> 0)))
            h.h_buckets)
        c.histograms;
      (* Both lists are newest-first; prepending the child's keeps the
         parent's existing events before the child's, and the child's in
         their recording order. *)
      parent.events_rev <- c.events_rev @ parent.events_rev;
      (match (parent.tracer, c.tracer) with
      | Some ptr, Some ctr -> ptr.spans_rev <- ctr.spans_rev @ ptr.spans_rev
      | _ -> ())
  | _ -> ()

(* The GC totals a traced span reads at each end (its delta is their
   difference). [Gc.quick_stat]'s word counts only advance at a
   collection (a span too short to trigger one would read 0 words), so
   the words come from [Gc.minor_words] and [Gc.counters], which are
   current at every call; the collection counts are exact in
   [quick_stat]. *)
let gc_totals () =
  let q = Gc.quick_stat () in
  let _, _, major = Gc.counters () in
  {
    minor_words = Gc.minor_words ();
    major_words = major;
    minor_collections = q.Gc.minor_collections;
    major_collections = q.Gc.major_collections;
  }

let span t name f =
  match t with
  | Noop -> f ()
  | Active c ->
      c.stack <- name :: c.stack;
      let full = path c in
      let t0 = Sys.time () in
      (* Wall timestamps and GC readings exist only when tracing; the
         CPU-only sink keeps its original cost. *)
      let tr_state =
        match c.tracer with
        | None -> None
        | Some tr -> Some (tr, Clock.wall () -. tr.epoch, gc_totals ())
      in
      Fun.protect
        ~finally:(fun () ->
          let key = full ^ "_secs" in
          let dt = Sys.time () -. t0 in
          Hashtbl.replace c.timers key
            (dt +. (try Hashtbl.find c.timers key with Not_found -> 0.0));
          (match tr_state with
          | None -> ()
          | Some (tr, begin_secs, g0) ->
              let g1 = gc_totals () in
              tr.spans_rev <-
                {
                  span_name = full;
                  span_pid = tr.t_pid;
                  span_tid = tr.t_tid;
                  begin_secs;
                  end_secs = Clock.wall () -. tr.epoch;
                  gc =
                    {
                      minor_words = g1.minor_words -. g0.minor_words;
                      major_words = g1.major_words -. g0.major_words;
                      minor_collections =
                        g1.minor_collections - g0.minor_collections;
                      major_collections =
                        g1.major_collections - g0.major_collections;
                    };
                }
                :: tr.spans_rev);
          match c.stack with [] -> () | _ :: rest -> c.stack <- rest)
        f

(* Spans with explicit bounds, for lifetimes that no single call scope
   covers (a job's queue wait spans two threads; its decode happens before
   the job id that names its trace lane exists). Absolute Clock.wall
   stamps come in; epoch-relative spans come out, like [span]'s. *)
let add_span ?pid t name ~begin_wall ~end_wall =
  match t with
  | Noop -> ()
  | Active c -> (
      match c.tracer with
      | None -> ()
      | Some tr ->
          tr.spans_rev <-
            {
              span_name = name;
              span_pid = Option.value pid ~default:tr.t_pid;
              span_tid = tr.t_tid;
              begin_secs = begin_wall -. tr.epoch;
              end_secs = end_wall -. tr.epoch;
              gc =
                {
                  minor_words = 0.0;
                  major_words = 0.0;
                  minor_collections = 0;
                  major_collections = 0;
                };
            }
            :: tr.spans_rev)

module Snapshot = struct
  type event = { name : string; fields : (string * Json.t) list }

  type histogram = {
    count : int;
    sum : int;
    buckets : (int * int) list; (* (bucket index, count), sorted by index *)
  }

  type t = {
    counters : (string * int) list;
    timers : (string * float) list;
    histograms : (string * histogram) list;
    events : event list;
  }

  let of_sink = function
    | Noop -> { counters = []; timers = []; histograms = []; events = [] }
    | Active c ->
        {
          counters =
            Hashtbl.fold (fun k v acc -> (k, v) :: acc) c.counters []
            |> List.sort compare;
          timers =
            Hashtbl.fold (fun k v acc -> (k, v) :: acc) c.timers []
            |> List.sort compare;
          histograms =
            Hashtbl.fold
              (fun k h acc ->
                ( k,
                  {
                    count = h.h_count;
                    sum = h.h_sum;
                    buckets =
                      Hashtbl.fold (fun b n acc -> (b, n) :: acc) h.h_buckets []
                      |> List.sort compare;
                  } )
                :: acc)
              c.histograms []
            |> List.sort compare;
          events =
            List.rev_map
              (fun (name, fields) -> { name; fields })
              c.events_rev;
        }

  let histogram_to_json h =
    Json.Obj
      [
        ("count", Json.Int h.count);
        ("sum", Json.Int h.sum);
        ( "buckets",
          Json.Obj
            (List.map (fun (b, n) -> (bucket_label b, Json.Int n)) h.buckets)
        );
      ]

  let to_json s =
    Json.Obj
      [
        ( "counters",
          Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) s.counters) );
        ( "timers",
          Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) s.timers) );
        ( "histograms",
          Json.Obj
            (List.map (fun (k, h) -> (k, histogram_to_json h)) s.histograms) );
        ( "events",
          Json.List
            (List.map
               (fun e -> Json.Obj (("event", Json.String e.name) :: e.fields))
               s.events) );
      ]

  let scrub_elapsed = Scrub.null_mask Scrub.Stats

  (* Every section prints at least one line — an explicit "(none)" when
     empty — so piped summaries are stable whatever the sink recorded. *)
  let pp fmt s =
    Format.fprintf fmt "@[<v>";
    (match s.counters with
    | [] -> Format.fprintf fmt "counters  (none)@,"
    | l ->
        List.iter
          (fun (k, v) -> Format.fprintf fmt "counter %-32s %d@," k v)
          l);
    (match s.timers with
    | [] -> Format.fprintf fmt "timers  (none)@,"
    | l ->
        List.iter
          (fun (k, v) -> Format.fprintf fmt "timer   %-32s %.6f@," k v)
          l);
    (match s.histograms with
    | [] -> Format.fprintf fmt "histograms  (none)@,"
    | l ->
        List.iter
          (fun (k, h) ->
            Format.fprintf fmt "histo   %-32s n=%d sum=%d%s@," k h.count h.sum
              (String.concat ""
                 (List.map
                    (fun (b, n) ->
                      Printf.sprintf " %s:%d" (bucket_label b) n)
                    h.buckets)))
          l);
    (match s.events with
    | [] -> Format.fprintf fmt "events  (none)@,"
    | events ->
        let by_name = Hashtbl.create 8 in
        List.iter
          (fun e ->
            Hashtbl.replace by_name e.name
              (1 + (try Hashtbl.find by_name e.name with Not_found -> 0)))
          events;
        Hashtbl.fold (fun k v acc -> (k, v) :: acc) by_name []
        |> List.sort compare
        |> List.iter (fun (k, v) -> Format.fprintf fmt "events  %-32s %d@," k v));
    Format.fprintf fmt "@]"
end

let snapshot = Snapshot.of_sink

(* ------------------------------------------------------------------ *)
(* Trace export                                                       *)
(* ------------------------------------------------------------------ *)

module Trace = struct
  type nonrec gc_delta = gc_delta = {
    minor_words : float;
    major_words : float;
    minor_collections : int;
    major_collections : int;
  }

  type span = trace_span = {
    span_name : string;
    span_pid : int;
    span_tid : int;
    begin_secs : float;
    end_secs : float;
    gc : gc_delta;
  }

  let tracing = function Noop -> false | Active c -> c.tracer <> None

  let spans = function
    | Noop -> []
    | Active c -> (
        match c.tracer with
        | None -> []
        | Some tr ->
            (* Global begin-time order makes the per-tid timestamp stream
               non-decreasing (what test_contracts validates); on
               equal begins the longer (enclosing) span comes first so
               viewers nest children correctly. *)
            List.rev tr.spans_rev
            |> List.stable_sort (fun a b ->
                   let c = compare a.begin_secs b.begin_secs in
                   if c <> 0 then c
                   else
                     compare
                       (b.end_secs -. b.begin_secs)
                       (a.end_secs -. a.begin_secs)))

  let to_json t =
    let sp = spans t in
    let pids = List.sort_uniq compare (List.map (fun s -> s.span_pid) sp) in
    let lanes =
      List.sort_uniq compare (List.map (fun s -> (s.span_pid, s.span_tid)) sp)
    in
    let meta name pid tid label =
      Json.Obj
        [
          ("name", Json.String name);
          ("ph", Json.String "M");
          ("pid", Json.Int pid);
          ("tid", Json.Int tid);
          ("args", Json.Obj [ ("name", Json.String label) ]);
        ]
    in
    let metadata =
      List.map
        (fun pid ->
          meta "process_name" pid 0 (Printf.sprintf "run %d" pid))
        pids
      @ List.map
          (fun (pid, tid) ->
            meta "thread_name" pid tid (Printf.sprintf "domain %d" tid))
          lanes
    in
    let complete s =
      Json.Obj
        [
          ("name", Json.String s.span_name);
          ("cat", Json.String "fpgapart");
          ("ph", Json.String "X");
          ("ts", Json.Float (s.begin_secs *. 1e6));
          ("dur", Json.Float ((s.end_secs -. s.begin_secs) *. 1e6));
          ("pid", Json.Int s.span_pid);
          ("tid", Json.Int s.span_tid);
          ( "args",
            Json.Obj
              [
                ("gc_minor_words", Json.Float s.gc.minor_words);
                ("gc_major_words", Json.Float s.gc.major_words);
                ("gc_minor_collections", Json.Int s.gc.minor_collections);
                ("gc_major_collections", Json.Int s.gc.major_collections);
              ] );
        ]
    in
    Json.Obj
      [
        ("displayTimeUnit", Json.String "ms");
        ("traceEvents", Json.List (metadata @ List.map complete sp));
      ]

  let write ~path t = Json.write_file ~path (to_json t)
end

(* ------------------------------------------------------------------ *)
(* OpenMetrics export                                                 *)
(* ------------------------------------------------------------------ *)

module Metrics_export = struct
  (* Explicit-bound latency histograms for SLO reporting. The signed-log2
     histograms above are built for exact cross-sink merging; a scrape
     endpoint instead wants a small fixed set of human-meaningful bounds,
     so these keep cumulative counts per bound directly (the OpenMetrics
     representation) and observe in O(#buckets). *)
  module Slo = struct
    type t = {
      bounds : int array; (* upper bounds, ms, strictly increasing *)
      cumulative : int array; (* observations <= bounds.(i) *)
      mutable count : int;
      mutable sum_ms : int;
    }

    let default_buckets_ms =
      [ 1; 5; 10; 25; 50; 100; 250; 500; 1000; 2500; 5000; 10000; 30000 ]

    let create ?(buckets_ms = default_buckets_ms) () =
      let bounds = Array.of_list (List.sort_uniq compare buckets_ms) in
      {
        bounds;
        cumulative = Array.make (Array.length bounds) 0;
        count = 0;
        sum_ms = 0;
      }

    let observe t ms =
      t.count <- t.count + 1;
      t.sum_ms <- t.sum_ms + ms;
      Array.iteri
        (fun i b -> if ms <= b then t.cumulative.(i) <- t.cumulative.(i) + 1)
        t.bounds

    let count t = t.count
    let sum_ms t = t.sum_ms

    let buckets t =
      Array.to_list (Array.mapi (fun i b -> (b, t.cumulative.(i))) t.bounds)
  end

  type gauge = {
    g_name : string;
    g_help : string;
    g_value : float;
    g_labels : (string * string) list;
  }

  (* Prometheus metric names are [a-zA-Z_:][a-zA-Z0-9_:]*; our keys use
     '.', '/' and '-' as separators. *)
  let sanitize name =
    let b = Buffer.create (String.length name) in
    String.iteri
      (fun i c ->
        match c with
        | 'a' .. 'z' | 'A' .. 'Z' | '_' -> Buffer.add_char b c
        | '0' .. '9' ->
            if i = 0 then Buffer.add_char b '_';
            Buffer.add_char b c
        | _ -> Buffer.add_char b '_')
      name;
    Buffer.contents b

  let escape_help s =
    let b = Buffer.create (String.length s) in
    String.iter
      (fun c ->
        match c with
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | c -> Buffer.add_char b c)
      s;
    Buffer.contents b

  let escape_label s =
    let b = Buffer.create (String.length s) in
    String.iter
      (fun c ->
        match c with
        | '\\' -> Buffer.add_string b "\\\\"
        | '"' -> Buffer.add_string b "\\\""
        | '\n' -> Buffer.add_string b "\\n"
        | c -> Buffer.add_char b c)
      s;
    Buffer.contents b

  let number f =
    if Float.is_integer f && Float.abs f < 1e15 then
      Printf.sprintf "%.0f" f
    else Printf.sprintf "%.9g" f

  let render ?(prefix = "fpgapart") ?(gauges = []) ?(slos = []) snapshot =
    let buf = Buffer.create 4096 in
    let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
    let family n = prefix ^ "_" ^ sanitize n in
    let header n typ help =
      pr "# HELP %s %s\n" n (escape_help help);
      pr "# TYPE %s %s\n" n typ
    in
    (* Labeled samples of one family share one HELP/TYPE header, so
       callers list them consecutively (fleet per-worker/per-tenant
       gauges do). *)
    let last_family = ref "" in
    List.iter
      (fun g ->
        let n = family g.g_name in
        if not (String.equal !last_family n) then begin
          header n "gauge" g.g_help;
          last_family := n
        end;
        let labels =
          match g.g_labels with
          | [] -> ""
          | ls ->
              "{"
              ^ String.concat ","
                  (List.map
                     (fun (k, v) ->
                       Printf.sprintf "%s=\"%s\"" (sanitize k)
                         (escape_label v))
                     ls)
              ^ "}"
        in
        pr "%s%s %s\n" n labels (number g.g_value))
      gauges;
    (* SLO histograms are recorded in integer ms but exported in base
       units (seconds), as the exposition format prescribes. *)
    List.iter
      (fun (name, help, slo) ->
        let n = family name in
        header n "histogram" help;
        List.iter
          (fun (ub_ms, c) ->
            pr "%s_bucket{le=\"%s\"} %d\n" n
              (escape_label (number (float_of_int ub_ms /. 1000.0)))
              c)
          (Slo.buckets slo);
        pr "%s_bucket{le=\"+Inf\"} %d\n" n (Slo.count slo);
        pr "%s_sum %s\n" n (number (float_of_int (Slo.sum_ms slo) /. 1000.0));
        pr "%s_count %d\n" n (Slo.count slo))
      slos;
    List.iter
      (fun (k, v) ->
        let n = family k in
        header n "counter" (Printf.sprintf "Obs counter %s." k);
        pr "%s_total %d\n" n v)
      snapshot.Snapshot.counters;
    List.iter
      (fun (k, v) ->
        let n = family k in
        header n "gauge"
          (Printf.sprintf "Obs timer %s (accumulated CPU seconds)." k);
        pr "%s %s\n" n (number v))
      snapshot.Snapshot.timers;
    (* Signed-log2 histograms export with their native bucket upper
       bounds as [le] labels; buckets are stored per-index, so the
       cumulative sums are rebuilt here in ascending index order. *)
    List.iter
      (fun (k, h) ->
        let n = family k in
        header n "histogram" (Printf.sprintf "Obs histogram %s." k);
        let running = ref 0 in
        List.iter
          (fun (b, c) ->
            running := !running + c;
            let _, hi = bucket_bounds b in
            pr "%s_bucket{le=\"%d\"} %d\n" n hi !running)
          h.Snapshot.buckets;
        pr "%s_bucket{le=\"+Inf\"} %d\n" n h.Snapshot.count;
        pr "%s_sum %d\n" n h.Snapshot.sum;
        pr "%s_count %d\n" n h.Snapshot.count)
      snapshot.Snapshot.histograms;
    Buffer.add_string buf "# EOF\n";
    Buffer.contents buf
end
