#!/bin/sh
# Perf-regression smoke gate: the multilevel V-cycle at scale.
#
# The F-M engine's own perf contracts live in the test suite: test_core
# bounds allocated words per applied move (s9234, and c6288 under the
# hot-loop microbenchmark's protocol) and per candidate evaluation, and
# test/test_contracts.ml checks oracle identity (FPGAPART_FM_ORACLE=1
# changes nothing after the scrub). tools/check_schema.sh checks that a
# c6288 partition exports the fm.rescored_cells / fm.moves_per_sec
# telemetry.
set -eu
cd "$(dirname "$0")/.."

tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT

# The V-cycle must take a seeded 100k-cell Rent-profile circuit to a
# feasible partition inside the wall budget. The partition phase on a
# typical desktop core lands in single-digit seconds; the default budget
# leaves headroom for slow CI hosts (override with
# FPGAPART_ML_BUDGET_SECS). Feasibility is asserted through the result
# itself: a partition error exits non-zero, and the stats document always
# carries the part list of a Kway.check-clean result.
ml_budget=${FPGAPART_ML_BUDGET_SECS:-30}
scale_gate() {
  circuit=$1; budget=$2
  echo "perf check: multilevel $circuit under ${budget}s partition wall..."
  dune exec --no-print-directory bin/fpgapart.exe -- \
    partition --circuit "$circuit" --device-lib bench/scale_devices.json \
    --multilevel --stats-json "$tmpdir/ml.json" >/dev/null
  python3 - "$tmpdir/ml.json" "$budget" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
budget = float(sys.argv[2])
res = doc["result"]
wall = res["wall_secs"]
if not res["parts"]:
    sys.exit("multilevel result carries no parts")
if res["feasible_runs"] < 1:
    sys.exit("multilevel result reports no feasible run")
if wall > budget:
    sys.exit(f"multilevel partition took {wall:.1f}s (budget {budget:.0f}s)")
print(f"  {len(res['parts'])} devices, ${res['total_cost']:.0f}, {wall:.1f}s partition wall")
EOF
}
scale_gate gen100k "$ml_budget"

# FPGAPART_PERF_FULL widens the scale gate to the million-cell
# generator profile (several minutes of generation + mapping on top of
# the partition itself).
if [ -n "${FPGAPART_PERF_FULL:-}" ]; then
  scale_gate gen1m "${FPGAPART_ML_BUDGET_1M_SECS:-300}"
fi

echo "perf check: ok"
