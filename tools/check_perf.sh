#!/bin/sh
# Perf-regression smoke gate for the incremental F-M engine.
#
# Three checks:
#
#   1. The hot-loop microbenchmark runs, its artifact carries moves/sec
#      and allocated words per applied move for both gain modes, and
#      c6288's eager words/move stays at or under 16. The F-M inner loop
#      allocates nothing per candidate, and selecting and applying a move
#      allocate nothing either; what is left per move is the score tuple,
#      plus the per-run arrays (bucket, op registers, stamps, trail)
#      amortised over the moves. The figure is deterministic for the
#      fixed seed, so the bound is a hard gate.
#   2. A partition run on a genuinely multi-device circuit exports the
#      incremental-rescoring telemetry: the fm.rescored_cells counter and
#      the fm.moves_per_sec histogram (schema v4). c1355 would be useless
#      here: it fits one device, so it runs zero F-M passes.
#   3. The multilevel scale gate on gen100k (gen1m too under
#      FPGAPART_PERF_FULL=1).
#
# Oracle identity (FPGAPART_FM_ORACLE=1 changes nothing after the scrub)
# is checked in test/test_contracts.ml under `dune runtest`.
set -eu
cd "$(dirname "$0")/.."

tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT

echo "perf check: hot-loop microbenchmark (c6288, 1 run/mode)..."
dune exec --no-print-directory bench/main.exe -- hotloop \
  --hotloop-circuit c6288 --hotloop-runs 1 > "$tmpdir/hotloop.out"
python3 - "$tmpdir/hotloop.out" <<'EOF'
import json, sys
text = open(sys.argv[1]).read()
doc, _ = json.JSONDecoder().raw_decode(text[text.index("{"):])
bound = 16.0
for mode in ("eager", "lazy"):
    row = doc["modes"][mode]
    for key in ("moves_per_sec", "alloc_words_per_move", "rescored_cells"):
        if key not in row:
            sys.exit(f"perf check: hotloop {mode} row lacks {key}")
words = doc["modes"]["eager"]["alloc_words_per_move"]
if words > bound:
    sys.exit(f"perf check: c6288 eager F-M allocates {words:.1f} words per "
             f"applied move (bound {bound:.0f})")
print(f"  c6288 eager: {words:.1f} words/move (bound {bound:.0f})")
EOF

echo "perf check: incremental-rescoring telemetry (c6288)..."
dune exec --no-print-directory bin/fpgapart.exe -- \
  partition --circuit c6288 --seed 1 --stats-json "$tmpdir/plain.json" \
  >/dev/null
for key in '"fm.rescored_cells"' '"fm.moves_per_sec"'
do
  if ! grep -qF "$key" "$tmpdir/plain.json"; then
    echo "perf check: stats JSON lacks $key" >&2
    exit 1
  fi
done

# 3. Multilevel at scale: the V-cycle must take a seeded 100k-cell
#    Rent-profile circuit to a feasible partition inside the wall
#    budget. The partition phase on a typical desktop core lands in
#    single-digit seconds; the default budget leaves headroom for slow
#    CI hosts (override with FPGAPART_ML_BUDGET_SECS). Feasibility is
#    asserted through the result itself: a partition error exits
#    non-zero, and the stats document always carries the part list of a
#    Kway.check-clean result.
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
