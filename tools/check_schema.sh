#!/bin/sh
# Telemetry schema gate: generate a stats document with
# `fpgapart partition --stats-json` on a genuinely multi-device circuit,
# a multilevel one, and a fleet stats document, and fail if any
# documented key is missing. The determinism contracts on the same
# documents (same seed, --jobs 4, --trace, FPGAPART_JOBS=4) are compared
# through Obs.Scrub in test/test_contracts.ml, under `dune runtest`.
set -eu
cd "$(dirname "$0")/.."

tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT

run() {
  circuit=$1; out=$2; shift 2
  dune exec --no-print-directory bin/fpgapart.exe -- \
    partition --circuit "$circuit" --seed 1 --stats-json "$out" "$@" \
    >/dev/null
}

run c6288 "$tmpdir/a.json"

# Every key the README documents as schema v6 must be present, including
# the per-pass F-M event fields, the per-split device-window attempts,
# the split wall/CPU timing of the result, the v3 histograms (name ->
# {count; sum; buckets}) of F-M gains and bucket-scan lengths, the
# v4 incremental-rescoring telemetry (fm.rescored_cells counter,
# fm.moves_per_sec rate histogram), the v5 objective name in the
# options plus the per-axis resource_util object in the result, and
# the v6 strategy field ("flat" here; the multilevel knob object is
# checked by the dedicated multilevel run below).
for key in \
  '"schema_version": 6' '"circuit"' '"seed"' '"options"' '"result"' \
  '"obs"' '"counters"' '"timers"' '"events"' \
  '"parts"' '"wall_secs"' '"cpu_secs"' \
  '"event": "fm.pass"' '"event": "kway.device_attempt"' \
  '"event": "kway.split"' \
  '"pass"' '"applied"' '"rolled_back"' '"repl_attempted"' '"repl_accepted"' \
  '"cut"' '"terminals"' '"improved"' '"feasible"' '"span"' \
  '"fm.passes"' '"kway.device_attempts"' '"kway.splits"' \
  '"fm.rescored_cells"' \
  '"objective": "paper"' '"resource_util"' '"clb_util"' '"io_util"' \
  '"histograms"' '"fm.gain"' '"fm.scan_len"' '"fm.moves_per_sec"' \
  '"kway.attempt_cut"' '"kway.split_cut"' \
  '"count"' '"sum"' '"buckets"' \
  '"strategy": "flat"'
do
  if ! grep -qF "$key" "$tmpdir/a.json"; then
    echo "schema check: missing $key in stats JSON" >&2
    exit 1
  fi
done

# Multilevel telemetry (v6): a --multilevel run on a circuit that
# actually coarsens must export the V-cycle counters/histograms and the
# multilevel knob object in the options.
echo "schema check: multilevel telemetry (s9234)..."
run s9234 "$tmpdir/ml.json" --multilevel
for key in \
  '"ml.level"' '"ml.cells_per_level"' '"ml.coarsen_ratio"' \
  '"event": "ml.coarsen"' '"event": "ml.refine"' \
  '"max_levels"' '"coarsen_ratio"' '"refine_passes"'
do
  if ! grep -qF "$key" "$tmpdir/ml.json"; then
    echo "schema check: multilevel stats JSON lacks $key" >&2
    exit 1
  fi
done

# The fleet stats document is its own artifact with its own key set:
# per-worker lifecycle rows, per-tenant fair-queue rows, and the
# layered (memory + disk) cache summary.
dune build --no-print-directory bin/fpgapart.exe
FPGAPART=_build/default/bin/fpgapart.exe
fsock="$tmpdir/fleet.sock"
"$FPGAPART" serve --socket "$fsock" --workers 1 \
    --cache-dir "$tmpdir/fleetcache" >/dev/null 2>&1 &
fpid=$!
i=0
while [ ! -S "$fsock" ]; do
  i=$((i + 1))
  [ "$i" -gt 150 ] && { echo "schema check: fleet never bound" >&2; exit 1; }
  sleep 0.1
done
"$FPGAPART" fleet-stats --socket "$fsock" > "$tmpdir/fleet.json"
"$FPGAPART" svc-shutdown --socket "$fsock" >/dev/null
wait "$fpid" 2>/dev/null || true
for key in \
  '"artifact": "service.fleet_stats"' '"workers"' '"tenants"' \
  '"queue_len"' '"tenant_cap"' '"inflight"' '"cache"' '"disk_cache"' \
  '"restarts"' '"segments"' '"corrupt_skipped"' '"obs"'
do
  if ! grep -qF "$key" "$tmpdir/fleet.json"; then
    echo "schema check: missing $key in fleet stats JSON" >&2
    exit 1
  fi
done
echo "schema check: fleet stats keys ok"

echo "schema check: ok"
