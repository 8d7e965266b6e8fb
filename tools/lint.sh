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
# projection and the walk's boundary), coarsening, the .bench parser, F-M
# and the k-way partitioner no result may depend on the order a hash
# table is iterated in, since that order changes with the hash seed
# (OCAMLRUNPARAM=R). Look entries up; iterate arrays.
for f in $(git ls-files 'lib/techmap/*.ml' 'lib/hypergraph/*.ml' \
  lib/core/coarsen.ml lib/netlist/bench_format.ml lib/core/fm.ml \
  lib/core/kway.ml); do
  if grep -qE 'Hashtbl\.(iter|fold|to_seq)' "$f"; then
    echo "lint: hash-table iteration in $f" \
      "(iteration order must not decide a result)" >&2
    status=1
  fi
done

# One options codec: Experiments.Obs_report owns the JSON spelling of
# Kway.options (the stats document, the wire protocol and the cache key
# share it). No other program file spells its keys; lib/core/kway.ml
# names fields in its validation messages.
for f in $(git ls-files lib bin bench examples tools); do
  case "$f" in
    lib/experiments/obs_report.ml | lib/experiments/obs_report.mli) continue ;;
    lib/core/kway.ml) continue ;;
  esac
  if grep -qE \
    '"(fm_attempts|refine_rounds|coarsen_ratio|refine_passes|max_levels|functional_threshold)"' \
    "$f"; then
    echo "lint: options JSON key spelled in $f" \
      "(use Experiments.Obs_report.options_to_json/options_of_json)" >&2
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
