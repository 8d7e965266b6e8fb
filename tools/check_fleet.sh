#!/bin/sh
# Fleet acceptance gate: boot a 4-worker fleet on a throwaway socket and
# drive it hard. Checks that (0) the scheduler answers health with the
# worker pool attached, (1) the load generator pushes >= 1000 concurrent
# jobs across >= 2 tenants through the fleet with zero lost or
# duplicated replies and a sane p99, (2) a worker SIGKILLed mid-job is
# respawned and its job requeued exactly once — the client still gets
# its result and the service.worker_restarts / service.requeues counters
# advance, (3) the persistent result cache survives a full fleet
# restart (the resubmitted circuit is answered from disk), (4) a
# single-worker fleet replies byte-identically to the single-process
# daemon for the same submission, and (5) `--trace` with `--workers` is
# refused at the CLI rather than silently writing no trace.
set -eu
cd "$(dirname "$0")/.."

dune build --no-print-directory bin/fpgapart.exe tools/loadgen/loadgen.exe
FPGAPART=_build/default/bin/fpgapart.exe
LOADGEN=_build/default/tools/loadgen/loadgen.exe

tmpdir=$(mktemp -d)
sock="$tmpdir/fleet.sock"
cleanup() {
    "$FPGAPART" svc-shutdown --socket "$sock" >/dev/null 2>&1 || true
    "$FPGAPART" svc-shutdown --socket "$tmpdir/solo.sock" >/dev/null 2>&1 || true
    "$FPGAPART" svc-shutdown --socket "$tmpdir/one.sock" >/dev/null 2>&1 || true
    [ -n "${fleet_pid:-}" ] && wait "$fleet_pid" 2>/dev/null || true
    rm -rf "$tmpdir"
}
trap cleanup EXIT

wait_sock() {
    i=0
    while [ ! -S "$1" ]; do
        i=$((i + 1))
        [ "$i" -gt 150 ] && { echo "daemon never bound $1" >&2; exit 1; }
        sleep 0.1
    done
}

wait_workers() {
    # Block until every worker of the fleet on $1 reports up.
    want=$2
    i=0
    while :; do
        up=$("$FPGAPART" svc-health --socket "$1" 2>/dev/null \
            | python3 -c 'import json,sys; print(json.load(sys.stdin).get("workers_up", 0))' \
            || echo 0)
        [ "$up" -ge "$want" ] && break
        i=$((i + 1))
        [ "$i" -gt 150 ] && { echo "workers never came up on $1" >&2; exit 1; }
        sleep 0.1
    done
}

"$FPGAPART" serve --socket "$sock" --workers 4 --queue-cap 512 \
    --cache-dir "$tmpdir/cache" >/dev/null 2>"$tmpdir/fleet.err" &
fleet_pid=$!
wait_sock "$sock"
wait_workers "$sock" 4

# 0. Health carries the pool.
"$FPGAPART" svc-health --socket "$sock" | python3 -c '
import json, sys
h = json.load(sys.stdin)
assert h["state"] == "accepting", h
assert h["workers"] == 4, h
assert h["workers_up"] == 4, h
print("fleet check: health ok,", h["workers_up"], "workers up")
'

# 1. The load generator asserts zero lost / zero duplicated replies and
#    the p99 budget itself (exit 1 on violation).
"$LOADGEN" --socket "$sock" --jobs 1000 --clients 32 --tenants 4 \
    --seeds 2 --p99-ms 30000 > "$tmpdir/loadgen.json"
python3 - "$tmpdir/loadgen.json" <<'PY'
import json, sys
s = json.load(open(sys.argv[1]))
assert s["received"] == s["jobs"] == 1000, s
assert s["lost"] == 0 and s["duplicated"] == 0, s
print("fleet check: loadgen ok —", s["jobs"], "jobs, p99", round(s["p99_ms"], 1), "ms")
PY

# 2. SIGKILL a busy worker mid-partition: the job is requeued exactly
#    once, the client reply still arrives, and the restart/requeue
#    counters advance.
"$FPGAPART" submit --socket "$sock" --circuit s13207 --seed 97 --runs 4 \
    > "$tmpdir/kill.out" 2>/dev/null &
submit_pid=$!
busy=""
i=0
while [ -z "$busy" ]; do
    i=$((i + 1))
    [ "$i" -gt 100 ] && { echo "no worker ever went busy" >&2; exit 1; }
    busy=$("$FPGAPART" fleet-stats --socket "$sock" | python3 -c '
import json, sys
w = [w["pid"] for w in json.load(sys.stdin)["workers"] if w["state"] == "busy"]
print(w[0] if w else "")
')
    [ -z "$busy" ] && sleep 0.1
done
kill -9 "$busy"
wait "$submit_pid"
grep -q '"total_cost"' "$tmpdir/kill.out" \
    || { echo "requeued job never delivered a result" >&2; exit 1; }
"$FPGAPART" fleet-stats --socket "$sock" | python3 -c '
import json, sys
f = json.load(sys.stdin)
c = f["obs"]["counters"]
assert c.get("service.requeues", 0) >= 1, c
assert c.get("service.worker_restarts", 0) >= 1, c
print("fleet check: worker kill ok — requeues", c["service.requeues"],
      "restarts", c["service.worker_restarts"])
'

# 3. Disk cache survives a restart: warm a key, bounce the fleet, and
#    the same submission must be a cache hit served from disk.
"$FPGAPART" submit --socket "$sock" --circuit c1355 --seed 4242 \
    >/dev/null 2>&1
"$FPGAPART" svc-shutdown --socket "$sock" >/dev/null
wait "$fleet_pid" 2>/dev/null || true
"$FPGAPART" serve --socket "$sock" --workers 2 --queue-cap 512 \
    --cache-dir "$tmpdir/cache" >/dev/null 2>>"$tmpdir/fleet.err" &
fleet_pid=$!
wait_sock "$sock"
wait_workers "$sock" 2
"$FPGAPART" submit --socket "$sock" --circuit c1355 --seed 4242 \
    > "$tmpdir/warm.out" 2>"$tmpdir/warm.err"
grep -q 'cache hit' "$tmpdir/warm.err" \
    || { echo "disk cache did not survive the restart" >&2; exit 1; }
"$FPGAPART" fleet-stats --socket "$sock" | python3 -c '
import json, sys
f = json.load(sys.stdin)
assert f["disk_cache"]["len"] >= 1, f["disk_cache"]
assert f["obs"]["counters"].get("fleet.disk_cache_hit", 0) >= 1, f["obs"]["counters"]
print("fleet check: disk cache ok —", f["disk_cache"]["len"], "keys on disk")
'
"$FPGAPART" svc-shutdown --socket "$sock" >/dev/null
wait "$fleet_pid" 2>/dev/null || true

# 4. A single-worker fleet is byte-identical to the single-process
#    daemon for the same submission (scrubbing is unnecessary: result
#    documents carry no timings).
"$FPGAPART" serve --socket "$tmpdir/solo.sock" >/dev/null 2>&1 &
"$FPGAPART" serve --socket "$tmpdir/one.sock" --workers 1 >/dev/null 2>&1 &
wait_sock "$tmpdir/solo.sock"
wait_sock "$tmpdir/one.sock"
wait_workers "$tmpdir/one.sock" 1
"$FPGAPART" submit --socket "$tmpdir/solo.sock" --circuit c1355 --seed 9 \
    > "$tmpdir/solo.json" 2>/dev/null
"$FPGAPART" submit --socket "$tmpdir/one.sock" --circuit c1355 --seed 9 \
    > "$tmpdir/one.json" 2>/dev/null
cmp "$tmpdir/solo.json" "$tmpdir/one.json" \
    || { echo "single-worker fleet reply differs from daemon reply" >&2; exit 1; }
echo "fleet check: single-worker fleet is byte-identical to the daemon"

# 5. The lifecycle trace belongs to the single-process daemon; a fleet
#    asked for one must refuse to start, not run without it.
if "$FPGAPART" serve --socket "$tmpdir/traced.sock" --workers 1 \
    --trace "$tmpdir/fleet.trace.json" >/dev/null 2>"$tmpdir/trace.err"; then
    echo "serve --workers 1 --trace was accepted" >&2
    exit 1
fi
grep -q -- '--trace' "$tmpdir/trace.err" \
    || { echo "serve --workers --trace failed without naming --trace" >&2; exit 1; }
[ ! -e "$tmpdir/traced.sock" ] \
    || { echo "refused fleet still bound its socket" >&2; exit 1; }
echo "fleet check: --workers with --trace is refused"

echo "fleet check: all green"
