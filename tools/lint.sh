#!/bin/sh
# Source hygiene check (ocamlformat is not a build dependency, so this is
# the fmt-clean equivalent the CI target runs): no tabs, no trailing
# whitespace, and a final newline in every OCaml source and dune file.
set -eu
cd "$(dirname "$0")/.."

status=0
files=$(git ls-files '*.ml' '*.mli' '*/dune' 'dune-project')

for f in $files; do
  if grep -qIP '\t' "$f"; then
    echo "lint: tab character in $f" >&2
    status=1
  fi
  if grep -qI ' $' "$f"; then
    echo "lint: trailing whitespace in $f" >&2
    status=1
  fi
  if [ -s "$f" ] && [ "$(tail -c 1 "$f")" != "" ]; then
    echo "lint: missing final newline in $f" >&2
    status=1
  fi
done

# One feasibility rule: which device test applies under an objective is
# decided in lib/fpga (Fpga.Objective.window, and fits and cheapest over
# it). No other program code names the modes or reads the field. test/ is
# exempt: it asserts each builtin's mode.
for f in $(git ls-files 'lib/*.ml' 'bin/*.ml' 'bench/*.ml' 'examples/*.ml' \
  'tools/*.ml'); do
  case "$f" in lib/fpga/*) continue ;; esac
  if grep -qE 'Objective\.(Primary|Vector)|\.feasibility\b' "$f"; then
    echo "lint: feasibility mode read outside lib/fpga in $f" \
      "(use Fpga.Objective.window/fits/cheapest)" >&2
    status=1
  fi
done

# One device window: a part's CLB window, terminal budget and per-axis caps
# come from Fpga.Objective.window, so no partitioner phase in lib/core
# re-derives them from the device. The verifier (Kway.check) is exempt: it
# recounts a result on its own.
for f in $(git ls-files 'lib/core/*.ml'); do
  case "$f" in lib/core/verifier.ml) continue ;; esac
  if grep -qE '\bDevice\.(min_clbs|max_clbs|axis_min|axis_max|terminals)\b' "$f"
  then
    echo "lint: device bound read outside the window in $f" \
      "(use Fpga.Objective.window)" >&2
    status=1
  fi
done

# One replica-connection rule: a copy connects the inputs its outputs'
# supports name. The traditional all-inputs baseline is a hypergraph
# (Experiments.Ablation.traditional), not a mode of the F-M kernel, so no
# module of lib/hypergraph or lib/core names a model. test/ is exempt.
for f in $(git ls-files 'lib/hypergraph/*.ml' 'lib/core/*.ml'); do
  if grep -qE 'Traditional|~model|\?\(model' "$f"; then
    echo "lint: replica-connection model in $f" \
      "(widen the supports instead: Experiments.Ablation.traditional)" >&2
    status=1
  fi
done

# Cost and bounds are data: an objective prices a device at its price and
# a cut net at its net_price, and an F-M config names its bounds (built by
# Fm.balance_config or Fm.window_config). No program code builds a config
# from closures or reads a cost closure off an objective. test/ is exempt:
# it keeps the closure scoring as a reference.
for f in $(git ls-files 'lib/*.ml' 'bin/*.ml' 'bench/*.ml' 'examples/*.ml' \
  'tools/*.ml'); do
  if grep -qE 'Fm\.Config\b|~area_ok\b|~score:|\.(device_cost|net_cost)\b' \
    "$f"; then
    echo "lint: cost or F-M bounds as a closure in $f" \
      "(read net_price and Device.price; use Fm.balance_config or" \
      "Fm.window_config)" >&2
    status=1
  fi
done

# One result per input: in lib/techmap, lib/hypergraph (the warm start's
# projection and the walk's boundary), the three parsers, the elaborator
# they share and every module of lib/core (coarsening, F-M, each k-way
# phase) no result may depend on the order a hash table is iterated in,
# since that order changes with the hash seed (OCAMLRUNPARAM=R). Look
# entries up; iterate arrays.
for f in $(git ls-files 'lib/techmap/*.ml' 'lib/hypergraph/*.ml' \
  'lib/core/*.ml' lib/netlist/bench_format.ml lib/netlist/blif.ml \
  lib/netlist/verilog.ml lib/netlist/elaborate.ml); do
  if grep -qE 'Hashtbl\.(iter|fold|to_seq)' "$f"; then
    echo "lint: hash-table iteration in $f" \
      "(iteration order must not decide a result)" >&2
    status=1
  fi
done

# One name resolver: named declarations become a circuit only through
# Netlist.Elaborate (the parsers, Delta.apply and the digest's canonical
# form), so every front end numbers nodes by the same search. Placeholder
# flip-flops are the resolver's tool; besides it only the rebuilders
# that walk an existing circuit in topological order (Transform,
# Decompose) and the generators may create or wire them.
for f in $(git ls-files 'lib/*.ml' 'lib/*.mli' 'bin/*.ml' 'bench/*.ml' \
  'examples/*.ml' 'tools/*.ml'); do
  case "$f" in
    lib/netlist/circuit.ml | lib/netlist/circuit.mli) continue ;;
    lib/netlist/elaborate.ml | lib/netlist/transform.ml) continue ;;
    lib/netlist/generator.ml | lib/techmap/decompose.ml) continue ;;
  esac
  if grep -qE '\b(dff_placeholder|connect_dff)\b' "$f"; then
    echo "lint: placeholder flip-flop built in $f" \
      "(resolve named declarations with Netlist.Elaborate)" >&2
    status=1
  fi
done

# One options codec: Experiments.Obs_report owns the JSON spelling of
# Kway.options (the stats document, the wire protocol and the cache key
# share it). No other program file spells its keys.
for f in $(git ls-files lib bin bench examples tools); do
  case "$f" in
    lib/experiments/obs_report.ml | lib/experiments/obs_report.mli) continue ;;
  esac
  if grep -qE '"(functional_threshold)"' "$f"; then
    echo "lint: options JSON key spelled in $f" \
      "(use Experiments.Obs_report.options_to_json/options_of_json)" >&2
    status=1
  fi
done

# One set of options: the search effort is the drivers' constants
# (Kway_types.flat_budget and narrowed_budget, the V-cycle's sweeps per
# level, Coarsen.hierarchy's depth and stall rule), not settings, so
# the options, the wire and the cache key carry none of it. No program
# file names the budget knobs the options once had, or the exact-float
# codec only their ratio needed. The V-cycle's "ml.coarsen_ratio"
# histogram keeps its name.
for f in $(git ls-files 'lib/*.ml' 'lib/*.mli' 'bin/*.ml' 'bin/*.mli' \
  'bench/*.ml' 'bench/*.mli' 'examples/*.ml' 'examples/*.mli' \
  'tools/*.ml' 'tools/*.mli'); do
  if grep -qE \
    'fm_attempts|refine_rounds|refine_passes|max_levels|stall_ratio|exact_float' \
    "$f" || grep -qP '(?<!ml\.)coarsen_ratio' "$f"; then
    echo "lint: search-budget knob named in $f" \
      "(the budget is Kway_types.flat_budget/narrowed_budget)" >&2
    status=1
  fi
done

# One independent verifier: Kway.check (lib/core/verifier.ml) recounts a
# result from the hypergraph and the members, so a driver bug cannot make
# the driver and its verifier agree. It calls only Fpga, Hypergraph and
# Bitvec: it names no driver module, and Kway_types only for the result
# types, never its helpers (the drivers' own result assembly).
f=lib/core/verifier.ml
if grep -qE '\b(Kway|Split|Pairwise|Tally|Warm|Vcycle|Fm|Coarsen|Bucket|Partition_state|Projection|Replication_potential)\.' "$f" \
  || grep -oE '\bKway_types\.[A-Za-z_]+' "$f" | grep -qvE '\.(part|result)$'
then
  echo "lint: $f uses driver code" \
    "(the verifier calls only Fpga, Hypergraph and Bitvec)" >&2
  status=1
fi

# One dispatch path: the fleet scheduler runs a plain job, a portfolio
# race and a forwarded resubmit as legs through one relay, and ends every
# dispatched job in one settle step. Each line is tagged with the
# top-level binding it sits in: one binding may end jobs (F.finish_job,
# F.record_run) and one may call run_on_worker.
f=lib/fleet/scheduler.ml
for pat in 'F\.(finish_job|record_run)' 'run_on_worker'; do
  fns=$(awk -v pat="$pat" '
    /^(let|and) / { name = ($2 == "rec") ? $3 : $2 }
    $0 ~ pat && name != pat { print name }' "$f" | sort -u)
  if [ "$(echo "$fns" | grep -c .)" -ne 1 ]; then
    echo "lint: $pat used in" $fns "in $f" \
      "(one relay runs every leg, one settle step ends every job)" >&2
    status=1
  fi
done

# One cache file: the fleet's persistent cache is cache-0.seg alone. It
# cuts a torn tail instead of starting a second file, so it neither lists
# the directory nor names numbered files.
f=lib/fleet/disk_cache.ml
if grep -qE 'Sys\.readdir|cache-%d' "$f"; then
  echo "lint: $f lists or numbers cache files" \
    "(one append-only file, a torn tail is cut at open)" >&2
  status=1
fi

# One serve surface: every setting the daemon and the fleet share is one
# record, Service.Front.config, that both backends run on as it is, so no
# backend copies a setting field by field (a copy is where a setting gets
# hard-coded away). The scheduler runs jobs and reports its pool as data
# (Front.Pool.t); the front end renders every reply.
for f in $(git ls-files 'lib/fleet/*.ml') lib/service/server.ml; do
  if grep -qE 'F\.socket_path *=|tenant_weights *=|trace_path *=' "$f"; then
    echo "lint: serve setting copied field by field in $f" \
      "(run on Service.Front.config as it is)" >&2
    status=1
  fi
done
f=lib/fleet/scheduler.ml
if grep -qE '"schema_version"|g_help' "$f"; then
  echo "lint: $f renders a reply" \
    "(report the pool as Service.Front.Pool.t; Front renders it)" >&2
  status=1
fi

# One span clock: a span is timed by its trace span alone (Obs.span), so
# the partitioning libraries read no clock, except where
# Kway_types.finish stamps a result's wall_secs and cpu_secs. Process CPU
# time (Sys.time counts every domain's CPU) is read in lib/ only through
# Obs.Clock.cpu.
for f in $(git ls-files 'lib/core/*.ml' 'lib/hypergraph/*.ml' \
  'lib/netlist/*.ml' 'lib/techmap/*.ml' 'lib/fpga/*.ml'); do
  case "$f" in lib/core/kway_types.ml) continue ;; esac
  if grep -qE 'Obs\.Clock|Sys\.time|Unix\.gettimeofday' "$f"; then
    echo "lint: clock read in $f" \
      "(a span is timed by the trace; Kway_types.finish stamps a result)" >&2
    status=1
  fi
done
if git ls-files 'lib/*.ml' | xargs grep -nE 'Sys\.time' \
  | grep -vE '^lib/obs/obs\.ml:[0-9]+: *let cpu = Sys\.time$' | grep -q .
then
  echo "lint: Sys.time read in lib/ outside Obs.Clock.cpu" >&2
  status=1
fi

# One gain path: F-M scores every candidate mask (Fm.iter_masks) by its
# exact delta (Partition_state.eval_into). The paper's closed forms
# (eqs. 7-11) are the test suite's oracle for that delta
# (test/reference_gain.ml), so no program module keeps them.
for f in lib/core/gain.ml lib/core/gain.mli; do
  if [ -e "$f" ]; then
    echo "lint: $f exists (the closed forms live in test/reference_gain.ml)" >&2
    status=1
  fi
done
for f in $(git ls-files 'lib/*.ml' 'lib/*.mli' 'bin/*.ml' 'bin/*.mli' \
  'bench/*.ml' 'bench/*.mli' 'examples/*.ml' 'examples/*.mli' \
  'tools/*.ml' 'tools/*.mli'); do
  if grep -qE '\bGain\.|single_move|traditional_replication' "$f"; then
    echo "lint: second gain path in $f" \
      "(score candidates through Fm.iter_masks and eval_into)" >&2
    status=1
  fi
done

# One pass per structure: the mapper sorts a slot's or a LUT's few nets
# with Cover.insertion_sort, since a library sort allocates its closures
# on every call, and the circuit builder keeps the fanin array its caller
# hands over instead of converting a list.
for f in $(git ls-files 'lib/techmap/*.ml'); do
  if grep -qE '\b(Array\.(sort|stable_sort)|List\.(sort|sort_uniq))\b' "$f"
  then
    echo "lint: library sort in $f (use Cover.insertion_sort)" >&2
    status=1
  fi
done
if grep -q 'Array\.of_list' lib/netlist/circuit.ml; then
  echo "lint: Array.of_list in lib/netlist/circuit.ml" \
    "(Builder.gate takes its fanins as an int array)" >&2
  status=1
fi

# One kit per domain: the engine's graph-sized buffers live in kits the
# executing domain keeps between jobs (Parallel.Slot): the job's flat
# root (Kway_types.root_kit), the split driver's run kit (its free list
# of retired F-M states and its two remainder buffers) and the pair
# refiner's kit (its state and its union buffer). A retired state is
# rebuilt in place (Partition_state.reuse). So in lib/core a state, a
# carve buffer or a flat form is built only in a kit's binding (split.ml
# run_kit and acquire, pairwise.ml refine_kit and acquire, kway_types.ml
# root_kit), and in Fm.random_flat_state, the one-shot start of the
# bipartition entry points (Fm.random_state and Fm.multi_start), whose
# states outlive the call. Each line is tagged with the top-level binding
# it sits in.
for f in $(git ls-files 'lib/core/*.ml'); do
  fns=$(awk 'BEGIN { name = "(top)" }
    /^(let|and) / { name = ($2 == "rec") ? $3 : $2 }
    /Partition_state\.create|(^|[^A-Za-z0-9_])(Flat|F)\.(buffer|of_hypergraph)([^A-Za-z0-9_]|$)/ {
      print name }' "$f" | sort -u)
  for fn in $fns; do
    case "$f:$fn" in
      lib/core/split.ml:run_kit | lib/core/split.ml:acquire) ;;
      lib/core/pairwise.ml:refine_kit | lib/core/pairwise.ml:acquire) ;;
      lib/core/kway_types.ml:root_kit) ;;
      lib/core/fm.ml:random_flat_state) ;;
      *)
        echo "lint: state, buffer or flat form built in $fn of $f" \
          "(take it from the domain's kit)" >&2
        status=1
        ;;
    esac
  done
done
# The kits' one home is Parallel.Slot: no other program code keeps a
# domain-local value.
for f in $(git ls-files 'lib/*.ml' 'lib/*.mli' 'bin/*.ml' 'bench/*.ml' \
  'examples/*.ml' 'tools/*.ml'); do
  case "$f" in lib/parallel/*) continue ;; esac
  if grep -q 'Domain\.DLS' "$f"; then
    echo "lint: Domain.DLS in $f (keep a per-domain value in a" \
      "Parallel.Slot)" >&2
    status=1
  fi
done

# One graph form for the bipartition engine: Partition_state, F-M, the
# split driver and the pair refiner read Hypergraph.Flat, and a remainder
# or a pair union is carved flat-to-flat into a recycled buffer
# (Hypergraph.Flat.carve). So no program code builds an induced graph of
# records or reads per-net pin masks off a cell record. test/ is exempt:
# it keeps the list-built induced copy as the carve's reference.
for f in $(git ls-files 'lib/*.ml' 'lib/*.mli' 'bin/*.ml' 'bin/*.mli'); do
  if grep -qE 'induce_copies|full_in_pins|full_out_pins' "$f"; then
    echo "lint: induced graph of records or cell pin masks in $f" \
      "(carve with Hypergraph.Flat.carve; read Flat.inc_in/inc_out)" >&2
    status=1
  fi
done

# One acceptance suite, in OCaml: the tooling, the tests and CI call no
# Python.
for f in $(git ls-files tools test Makefile .github); do
  if grep -qI 'python[3]' "$f"; then
    echo "lint: Python call in $f (checks belong in dune runtest)" >&2
    status=1
  fi
done

[ "$status" -eq 0 ] && echo "lint: ok"
exit "$status"
