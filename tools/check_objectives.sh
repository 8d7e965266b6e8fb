#!/bin/sh
# Objective-API acceptance gate, in two halves.
#
# Equivalence: a run with pure defaults — no flags beyond the circuit
# and seed, so the default objective (paper) and the default flat
# strategy — must reproduce the pre-redesign scalar partitioner's
# decisions byte-for-byte on every bundled circuit, and its stats
# options must name the paper objective. Each run's stats document is
# reduced to its objective-stable subset (tools/extract_stable.py:
# result + decision telemetry, minus schema-revision keys and wall/ratio
# fields) and compared against the goldens in test/golden/, which were
# generated from the scalar implementation. Any drift in a device
# choice, a cut, an F-M event or a counter fails the gate.
#
# Smoke: the non-paper objectives must run end-to-end — a valid
# feasible partition under `--objective multi-personality` (vector
# feasibility) and `--objective chiplet` (interposer-priced cut nets),
# each stamping its objective name into the stats options — and an
# unknown objective name must be rejected at the CLI.
set -eu
cd "$(dirname "$0")/.."

tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT

dune build bin/fpgapart.exe 2>/dev/null

run() {
  circuit=$1; shift
  dune exec --no-print-directory --no-build bin/fpgapart.exe -- \
    partition --circuit "$circuit" --seed 1 "$@" >/dev/null
}

for circuit in c1355 c5315 c6288 c7552 s13207 s15850 s38584 s5378 s9234; do
  run "$circuit" --stats-json "$tmpdir/$circuit.json"
  if ! grep -qF '"objective": "paper"' "$tmpdir/$circuit.json"; then
    echo "objective check: the default run of $circuit does not stamp the paper objective" >&2
    exit 1
  fi
  python3 tools/extract_stable.py "$tmpdir/$circuit.json" \
    > "$tmpdir/$circuit.stable"
  if ! cmp -s "$tmpdir/$circuit.stable" "test/golden/$circuit.baseline.json"; then
    echo "objective check: default run of $circuit drifted from the scalar baseline" >&2
    diff "test/golden/$circuit.baseline.json" "$tmpdir/$circuit.stable" | head -20 >&2
    exit 1
  fi
done

for objective in multi-personality chiplet; do
  run c1355 --objective "$objective" --stats-json "$tmpdir/smoke.json"
  if ! grep -qF "\"objective\": \"$objective\"" "$tmpdir/smoke.json"; then
    echo "objective check: --objective $objective did not stamp the stats options" >&2
    exit 1
  fi
done

if run c1355 --objective no-such-objective 2>/dev/null; then
  echo "objective check: unknown objective name was accepted" >&2
  exit 1
fi

echo "objective check: ok (defaults match scalar baselines on 9 circuits; multi-personality and chiplet run end-to-end)"
