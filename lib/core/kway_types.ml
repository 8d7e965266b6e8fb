type part = {
  device : Fpga.Device.t;
  members : (int * Bitvec.t) list;
  clbs : int;
  iobs : int;
  used : int array;
}

type result = {
  parts : part list;
  summary : Fpga.Cost.summary;
  replicated_cells : int;
  total_cells : int;
  wall_secs : float;
  cpu_secs : float;
  runs : int;
  feasible_runs : int;
}

let never_stop () = false
let count_true = Array.fold_left (fun a b -> if b then a + 1 else a) 0

type multilevel = unit

type strategy = Flat | Multilevel of multilevel

type options = {
  runs : int;
  seed : int;
  replication : [ `None | `Functional of int ];
  jobs : int;
  should_stop : unit -> bool;
  objective : Fpga.Objective.t;
  strategy : strategy;
}

type budget = { passes : int; restarts : int; device_limit : int option }

(* The paper's search effort: ten F-M passes (a pass that gains nothing
   ends the search sooner), three restarts per candidate device, every
   candidate device tried. *)
let flat_budget = { passes = 10; restarts = 3; device_limit = None }

(* The V-cycle's coarse solve on a wide decomposition: fewer passes, one
   restart, and a split step that stops after two feasible devices. *)
let narrowed_budget = { passes = 6; restarts = 1; device_limit = Some 2 }

let cancelled = "cancelled"

module Options = struct
  type t = options

  let default_multilevel = ()

  let default =
    {
      runs = 5;
      seed = 1;
      replication = `None;
      jobs = 1;
      should_stop = never_stop;
      objective = Fpga.Objective.paper;
      strategy = Flat;
    }

  let make ?(base = default) ?(runs = base.runs) ?(seed = base.seed)
      ?(replication = base.replication) ?(jobs = base.jobs)
      ?(should_stop = base.should_stop) ?(objective = base.objective)
      ?(strategy = base.strategy) () =
    (* Fail loudly at construction: a zero or negative count otherwise
       surfaces far downstream as "no feasible partition" (runs = 0) or a
       pool that silently runs inline — both much harder to attribute
       than this. *)
    let positive what v =
      if v <= 0 then
        invalid_arg
          (Printf.sprintf "Kway.Options.make: %s must be positive (got %d)"
             what v)
    in
    positive "runs" runs;
    positive "jobs" jobs;
    (match replication with
    | `Functional t when t < 0 ->
        invalid_arg
          (Printf.sprintf
             "Kway.Options.make: replication threshold must be non-negative \
              (got %d)"
             t)
    | `None | `Functional _ -> ());
    { runs; seed; replication; jobs; should_stop; objective; strategy }
end

let lift (g : Hypergraph.Flat.t) (c, m) =
  ( g.Hypergraph.Flat.origin_cell.(c),
    Bitvec.expand g.Hypergraph.Flat.origin_mask.(c) m )

(* Right-size: a part shaped for [dev] keeps it unless a cheaper device
   accepts the same demand and terminals. *)
let right_size ~relax_low obj library ~demand ~iobs (dev : Fpga.Device.t) =
  match Fpga.Objective.cheapest ~relax_low obj library ~demand ~iobs with
  | Some d when d.Fpga.Device.price < dev.Fpga.Device.price -> d
  | _ -> dev

let devices_of parts = Array.of_list (List.map (fun p -> p.device) parts)

let summarize_parts hg parts =
  let placements =
    List.map
      (fun p -> Fpga.Cost.place p.device ~used:p.used ~clbs:p.clbs ~iobs:p.iobs)
      parts
  in
  let summary = Fpga.Cost.summarize placements in
  let appearances = Array.make (Hypergraph.num_cells hg) 0 in
  List.iter
    (fun p ->
      List.iter
        (fun (c, _) -> appearances.(c) <- appearances.(c) + 1)
        p.members)
    parts;
  let replicated =
    Array.fold_left (fun acc n -> if n > 1 then acc + 1 else acc) 0 appearances
  in
  (summary, replicated, Hypergraph.num_cells hg)

let clock () = (Obs.Clock.wall (), Obs.Clock.cpu ())

(* The one [result] constructor. The summary and replication figures are
   recounted from the parts, the clocks measure from [since] (zero without
   it), and a call whose [should_stop] fired returns [Error cancelled]
   whatever it produced. *)
let finish ?since ~should_stop ~runs ~feasible_runs hg outcome =
  let wall_secs, cpu_secs =
    match since with
    | Some (w0, t0) -> (Obs.Clock.wall () -. w0, Obs.Clock.cpu () -. t0)
    | None -> (0.0, 0.0)
  in
  if should_stop () then Error cancelled
  else
    Result.map
      (fun parts ->
        let summary, replicated_cells, total_cells = summarize_parts hg parts in
        { parts; summary; replicated_cells; total_cells; wall_secs; cpu_secs;
          runs; feasible_runs })
      outcome

(* Package externally produced parts as a result (for [check]ing a
   partition built by hand, e.g. a projected labelling in the property
   tests). The clocks and run counters describe no search, so they are
   zero/one. *)
let result_of_parts hg parts =
  Result.get_ok
    (finish ~should_stop:never_stop ~runs:1 ~feasible_runs:1 hg (Ok parts))
