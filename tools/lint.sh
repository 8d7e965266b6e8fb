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
# share it). No other program file spells its keys; lib/core/kway_types.ml
# (Kway.Options.make) names fields in its validation messages.
for f in $(git ls-files lib bin bench examples tools); do
  case "$f" in
    lib/experiments/obs_report.ml | lib/experiments/obs_report.mli) continue ;;
    lib/core/kway_types.ml) continue ;;
  esac
  if grep -qE \
    '"(fm_attempts|refine_rounds|coarsen_ratio|refine_passes|max_levels|functional_threshold)"' \
    "$f"; then
    echo "lint: options JSON key spelled in $f" \
      "(use Experiments.Obs_report.options_to_json/options_of_json)" >&2
    status=1
  fi
done

# One independent verifier: Kway.check (lib/core/verifier.ml) recounts a
# result from the hypergraph and the members, so a driver bug cannot make
# the driver and its verifier agree. It calls only Fpga, Hypergraph and
# Bitvec: it names no driver module, and Kway_types only for the result
# types, never its helpers (the drivers' own result assembly).
f=lib/core/verifier.ml
if grep -qE '\b(Kway|Split|Pairwise|Tally|Warm|Vcycle|Fm|Coarsen|Gain|Bucket|Partition_state|Projection|Replication_potential)\.' "$f" \
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
