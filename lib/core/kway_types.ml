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

type multilevel = {
  max_levels : int;
  coarsen_ratio : float;
  refine_passes : int;
}

type strategy = Flat | Multilevel of multilevel

type options = {
  runs : int;
  seed : int;
  replication : [ `None | `Functional of int ];
  max_passes : int;
  fm_attempts : int;
  refine_rounds : int;
  jobs : int;
  should_stop : unit -> bool;
  objective : Fpga.Objective.t;
  strategy : strategy;
}

(* The objective's F-M preferences are structural variants (lib/fpga sits
   below this library); map them onto the engine's own type. *)
let fm_obj_of : Fpga.Objective.fm_objective -> Fm.objective = function
  | `Cut -> Fm.Cut
  | `Terminals -> Fm.Terminals

let cancelled = "cancelled"

module Options = struct
  type t = options

  let default_multilevel =
    { max_levels = 12; coarsen_ratio = 0.9; refine_passes = 2 }

  let default =
    {
      runs = 5;
      seed = 1;
      replication = `None;
      max_passes = 10;
      fm_attempts = 3;
      refine_rounds = 1;
      jobs = 1;
      should_stop = never_stop;
      objective = Fpga.Objective.paper;
      strategy = Flat;
    }

  let make ?(base = default) ?(runs = base.runs) ?(seed = base.seed)
      ?(replication = base.replication) ?(max_passes = base.max_passes)
      ?(fm_attempts = base.fm_attempts) ?(refine_rounds = base.refine_rounds)
      ?(jobs = base.jobs) ?(should_stop = base.should_stop)
      ?(objective = base.objective) ?(strategy = base.strategy) () =
    (* Fail loudly at construction: a zero or negative budget otherwise
       surfaces far downstream as "no feasible partition" (runs = 0), an
       empty restart loop (fm_attempts = 0) or a pool that silently runs
       inline — all much harder to attribute than this. *)
    let positive what v =
      if v <= 0 then
        invalid_arg
          (Printf.sprintf "Kway.Options.make: %s must be positive (got %d)"
             what v)
    in
    positive "runs" runs;
    positive "max_passes" max_passes;
    positive "fm_attempts" fm_attempts;
    positive "jobs" jobs;
    if refine_rounds < 0 then
      invalid_arg
        (Printf.sprintf
           "Kway.Options.make: refine_rounds must be non-negative (got %d)"
           refine_rounds);
    (match strategy with
    | Flat -> ()
    | Multilevel m ->
        positive "max_levels" m.max_levels;
        positive "refine_passes" m.refine_passes;
        if not (m.coarsen_ratio > 0.0 && m.coarsen_ratio < 1.0) then
          invalid_arg
            (Printf.sprintf
               "Kway.Options.make: coarsen_ratio must be in (0, 1) (got %g)"
               m.coarsen_ratio));
    {
      runs;
      seed;
      replication;
      max_passes;
      fm_attempts;
      refine_rounds;
      jobs;
      should_stop;
      objective;
      strategy;
    }
end

(* [compress um m]: the bits of [m] at the positions [um] keeps,
   renumbered densely (the copy's output index of each kept output);
   [expand um m] is its inverse. *)
let compress um m =
  let acc = ref Bitvec.empty and pos = ref 0 in
  for o = 0 to Bitvec.max_width - 1 do
    if Bitvec.mem o um then begin
      if Bitvec.mem o m then acc := Bitvec.add !pos !acc;
      incr pos
    end
  done;
  !acc

let expand um m =
  let acc = ref Bitvec.empty and pos = ref 0 in
  for o = 0 to Bitvec.max_width - 1 do
    if Bitvec.mem o um then begin
      if Bitvec.mem !pos m then acc := Bitvec.add o !acc;
      incr pos
    end
  done;
  !acc

(* A copy in a sub-hypergraph maps back to the original as [(orig, um)]:
   the original cell and the original outputs the copy carries, which
   [Hypergraph.induce_copies] numbers in ascending order. [lift orig_of]
   takes a copy-coordinate member [(c, m)] to original coordinates. *)
let lift orig_of (c, m) =
  let orig, um = orig_of.(c) in
  (orig, expand um m)

(* Right-size: a part shaped for [dev] keeps it unless a cheaper device
   accepts the same demand and terminals. *)
let right_size ~relax_low obj library ~demand ~iobs (dev : Fpga.Device.t) =
  match Fpga.Objective.cheapest ~relax_low obj library ~demand ~iobs with
  | Some d
    when obj.Fpga.Objective.device_cost d < obj.Fpga.Objective.device_cost dev
    ->
      d
  | _ -> dev

let devices_of parts = Array.of_list (List.map (fun p -> p.device) parts)

let summarize_parts hg parts =
  let placements =
    List.map
      (fun p -> Fpga.Cost.place p.device ~used:p.used ~clbs:p.clbs ~iobs:p.iobs ())
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
