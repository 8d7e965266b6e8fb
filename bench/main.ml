(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation section, plus the ablations, the timing extension and the
   per-objective ablation. Performance is measured by e2ebench, not here.

   Usage:
     dune exec bench/main.exe                          # everything
     dune exec bench/main.exe -- table3 fig3 timing    # selected artifacts
     dune exec bench/main.exe -- --cut-runs 5 all      # faster Table III
   Options: --cut-runs N (Table III bipartitions per circuit, default 20),
            --runs/--kway-runs N (k-way multi-starts, default 5),
            --seed N.
   The option terms are shared with the fpgapart CLI (Cli_common), so the
   two frontends cannot drift. *)

open Cmdliner

let cut_runs = ref 20
let kway_runs = ref 5
let seed = ref 7

let progress fmt =
  Format.kfprintf
    (fun f -> Format.pp_print_newline f ())
    Format.err_formatter fmt

let section title = Format.printf "@.=== %s ===@.@." title

(* The k-way campaign feeds Tables IV-VII; run it once. *)
let campaign =
  lazy
    (List.map
       (fun e ->
         progress "k-way campaign: %s..." e.Experiments.Suite.display;
         Experiments.Kway_campaign.run ~runs:!kway_runs ~seed:!seed e)
       (Experiments.Suite.all ()))

let table1 () =
  section "Table I: the XC3000 device library";
  Format.printf "%a@." Fpga.Library.pp Fpga.Library.xc3000;
  Format.printf
    "(capacities and terminals are the real XC3000 values; prices are \
     reconstructed - see DESIGN.md)@."

let table2 () =
  section "Table II: benchmark circuit characteristics (after mapping)";
  Format.printf "%a@." Experiments.Table2.pp (Experiments.Table2.run_all ());
  Format.printf
    "(* = profile-matched synthetic reconstructions of the ISCAS circuits)@."

let fig3 () =
  section "Figure 3: cell distribution vs replication potential";
  Format.printf "%a@." Experiments.Fig3.pp (Experiments.Fig3.run_all ())

let table3 () =
  section
    (Printf.sprintf
       "Table III: best/average cut, F-M min-cut vs + functional replication \
        (%d runs/circuit)"
       !cut_runs);
  let rows =
    List.map
      (fun e ->
        progress "Table III: %s..." e.Experiments.Suite.display;
        Experiments.Table3.run ~runs:!cut_runs ~seed:!seed e)
      (Experiments.Suite.all ())
  in
  Format.printf "%a@." Experiments.Table3.pp rows

let table4 () =
  section "Table IV: percentage of replicated cells and CPU cost";
  Format.printf "%a@." Experiments.Kway_campaign.pp_table4 (Lazy.force campaign)

let table5 () =
  section "Table V: average CLB utilization after partitioning";
  Format.printf "%a@." Experiments.Kway_campaign.pp_table5 (Lazy.force campaign)

let table6 () =
  section "Table VI: total design cost after partitioning";
  Format.printf "%a@." Experiments.Kway_campaign.pp_table6 (Lazy.force campaign)

let table7 () =
  section "Table VII: average IOB utilization after partitioning";
  Format.printf "%a@." Experiments.Kway_campaign.pp_table7 (Lazy.force campaign)

let timing () =
  section "Extension: partition-aware static timing (baseline vs T=1)";
  let rows =
    List.filter_map
      (fun e ->
        progress "timing: %s..." e.Experiments.Suite.display;
        Experiments.Timing_eval.run ~runs:!kway_runs ~seed:!seed e)
      (Experiments.Suite.all ())
  in
  Format.printf "%a@." Experiments.Timing_eval.pp rows

let ablation () =
  section "Ablation A: functional vs traditional replication (min-cut)";
  let rows =
    List.map
      (fun e ->
        progress "ablation A: %s..." e.Experiments.Suite.display;
        Experiments.Ablation.replication_model ~runs:10 ~seed:!seed e)
      (Experiments.Suite.all ())
  in
  Format.printf "%a@." Experiments.Ablation.pp_replication_model rows;
  section "Ablation B: CLB output pairing on/off";
  let rows =
    List.map
      (fun e ->
        progress "ablation B: %s..." e.Experiments.Suite.display;
        Experiments.Ablation.pairing ~runs:10 ~seed:!seed e)
      (Experiments.Suite.all ())
  in
  Format.printf "%a@." Experiments.Ablation.pp_pairing rows;
  section "Ablation C: flat vs multilevel initial solutions";
  let rows =
    List.map
      (fun e ->
        progress "ablation C: %s..." e.Experiments.Suite.display;
        Experiments.Ablation.multilevel ~runs:5 ~seed:!seed e)
      (Experiments.Suite.all ())
  in
  Format.printf "%a@." Experiments.Ablation.pp_multilevel rows

(* Every builtin cost objective on every suite circuit, seed 1, so the
   paper / multi-personality / chiplet numbers sit side by side. *)
let objectives () =
  section "Per-objective ablation: every builtin cost objective";
  progress "objectives: %d circuits x %d objectives..."
    (List.length (Experiments.Suite.all ()))
    (List.length Fpga.Objective.builtins);
  let rows =
    List.concat_map
      (Experiments.Objectives.run ~runs:!kway_runs ~seed:1)
      (Experiments.Suite.all ())
  in
  Format.printf "%a@." Experiments.Objectives.pp rows

let artifacts =
  [
    ("table1", table1);
    ("table2", table2);
    ("fig3", fig3);
    ("table3", table3);
    ("table4", table4);
    ("table5", table5);
    ("table6", table6);
    ("table7", table7);
    ("ablation", ablation);
    ("timing", timing);
    ("objectives", objectives);
  ]

let run selected cut_runs' kway_runs' seed' =
  cut_runs := cut_runs';
  kway_runs := kway_runs';
  seed := seed';
  let names =
    selected
    |> List.concat_map (fun name ->
           if name = "all" then List.map fst artifacts else [ name ])
  in
  match List.find_opt (fun n -> not (List.mem_assoc n artifacts)) names with
  | Some unknown ->
      Format.eprintf "bench: unknown artifact %S (choose from: all %s)@."
        unknown
        (String.concat " " (List.map fst artifacts));
      exit 2
  | None ->
      let names = if names = [] then List.map fst artifacts else names in
      let t0 = Obs.Clock.cpu () in
      List.iter (fun name -> (List.assoc name artifacts) ()) names;
      progress "total CPU time: %.1fs" (Obs.Clock.cpu () -. t0)

let main =
  let doc =
    "Regenerate the paper's tables and figures, the ablations, the timing \
     extension and the per-objective ablation"
  in
  let artifacts_arg =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"ARTIFACT"
          ~doc:
            "Artifacts to produce (default: all): all, table1..table7, \
             fig3, ablation, timing, objectives.")
  in
  let cut_runs_arg =
    Arg.(
      value & opt Cli_common.positive_int 20
      & info [ "cut-runs" ] ~docv:"N"
          ~doc:"Table III bipartitions per circuit (default 20).")
  in
  let exits =
    Cmd.Exit.info 2
      ~doc:"on a usage error: a bad flag value or an unknown artifact."
    :: List.filter
         (fun i -> Cmd.Exit.info_code i <> Cmd.Exit.cli_error)
         Cmd.Exit.defaults
  in
  Cmd.v (Cmd.info "bench" ~doc ~exits)
    Term.(
      const run $ artifacts_arg $ cut_runs_arg
      $ Cli_common.runs ~extra_names:[ "kway-runs" ] ()
      $ Cli_common.seed ~default:7 ())

(* Every usage error exits 2: an unknown artifact, and a flag value
   Cmdliner rejects (which it would report as 124). *)
let () =
  exit
    (match Cmd.eval main with
    | code when code = Cmd.Exit.cli_error -> 2
    | code -> code)
