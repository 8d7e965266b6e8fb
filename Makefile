.PHONY: all build test bench lint schema trace service metrics fleet perf ci clean

all: build

build:
	dune build @all

# The suite includes test/test_contracts.ml: flat-path golden identity on
# the nine MCNC circuits, jobs=1 vs jobs=4 scrubbed-telemetry identity,
# F-M oracle identity (all nine circuits under FPGAPART_PERF_FULL=1) and
# the non-paper objectives' smoke runs.
test:
	dune runtest

bench:
	dune exec bench/main.exe

lint:
	sh tools/lint.sh

# Regenerates the stats documents and fails on schema-key drift (see
# tools/check_schema.sh).
schema: build
	sh tools/check_schema.sh

# Produces a --trace artifact from a traced parallel partition and
# validates the Chrome trace-event JSON Perfetto will load (see
# tools/check_trace.sh).
trace: build
	sh tools/check_trace.sh

# Boots the partitioning daemon on a scratch socket and exercises the
# whole client surface: canonical-hash cache hits must be byte-identical,
# in-flight jobs cancellable, garbage frames survivable, shutdown clean
# (see tools/check_service.sh).
service: build
	sh tools/check_service.sh

# Observability gate: the daemon's svc-metrics exposition must parse as
# valid OpenMetrics (cumulative buckets, +Inf == count, # EOF), health
# must answer, result replies must carry a consistent timings breakdown,
# scrubbed structured logs must be byte-identical across two identical
# runs, and the per-job trace must hold the full lifecycle span set
# (see tools/check_metrics.sh).
metrics: build
	sh tools/check_metrics.sh

# Fleet gate: boots a 4-worker scheduler on a scratch socket, pushes
# 1000 concurrent jobs across 4 tenants through it with the load
# generator (zero lost / zero duplicated replies, p99 budget), SIGKILLs
# a busy worker (exactly-once requeue, respawn), bounces the fleet to
# prove the disk cache survives restarts, and byte-compares a
# single-worker fleet reply against the plain daemon
# (see tools/check_fleet.sh).
fleet: build
	sh tools/check_fleet.sh

# Perf-regression smoke gate: the multilevel V-cycle must partition
# gen100k inside its wall budget (see tools/check_perf.sh; the F-M
# allocation bounds run in test_core under `dune runtest`). Then the
# bench harness regenerates BENCH_partition.json (fixed seeds; only
# *_secs fields vary run to run), including the end-to-end service
# latency row, so the perf trajectory accrues with every perf run.
perf: build
	sh tools/check_perf.sh
	dune exec --no-print-directory bench/main.exe -- partition

# CI runs the suite under both FPGAPART_JOBS=1 and FPGAPART_JOBS=4 (the
# tests read the variable to size the domain pool; the contracts test
# compares jobs=1 and jobs=4 runs itself), then the shell gates.
ci: build lint
	FPGAPART_JOBS=1 dune runtest --force
	FPGAPART_JOBS=4 dune runtest --force
	sh tools/check_schema.sh
	sh tools/check_trace.sh
	sh tools/check_service.sh
	sh tools/check_metrics.sh
	sh tools/check_fleet.sh
	sh tools/check_perf.sh

clean:
	dune clean
