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
# decided in lib/fpga (Fpga.Objective.fits, cheapest, res_max). No other
# program code names the modes or reads the field. test/ is exempt: it
# asserts each builtin's mode.
for f in $(git ls-files 'lib/*.ml' 'bin/*.ml' 'bench/*.ml' 'examples/*.ml' \
  'tools/*.ml'); do
  case "$f" in lib/fpga/*) continue ;; esac
  if grep -qE 'Objective\.(Primary|Vector)|\.feasibility\b' "$f"; then
    echo "lint: feasibility mode read outside lib/fpga in $f" \
      "(use Fpga.Objective.fits/cheapest/res_max)" >&2
    status=1
  fi
done

# One result per input: in lib/techmap, lib/hypergraph (the warm start's
# projection and the walk's boundary), the .bench parser and every module
# of lib/core (coarsening, F-M, each k-way phase) no result may depend on
# the order a hash table is iterated in, since that order changes with
# the hash seed (OCAMLRUNPARAM=R). Look entries up; iterate arrays.
for f in $(git ls-files 'lib/techmap/*.ml' 'lib/hypergraph/*.ml' \
  'lib/core/*.ml' lib/netlist/bench_format.ml); do
  if grep -qE 'Hashtbl\.(iter|fold|to_seq)' "$f"; then
    echo "lint: hash-table iteration in $f" \
      "(iteration order must not decide a result)" >&2
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
