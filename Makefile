.PHONY: all build test bench lint ci clean

all: build

build:
	dune build @all

# The suite checks every acceptance contract. test/test_contracts.ml
# drives the built CLI: flat-path golden identity on the nine MCNC
# circuits, the stats schema keys, jobs=1 vs jobs=4 scrubbed-telemetry
# identity, the --trace document, F-M oracle identity (all nine circuits
# under FPGAPART_PERF_FULL=1), the daemon's cache-hit byte identity, its
# 1% ECO resubmit (10x faster, within 2% of the cold cost), its
# OpenMetrics exposition and scrubbed log file, and the gen100k
# multilevel wall budget. test/test_fleet.ml drives `serve --workers N`:
# the 1000-job load generator run, --workers 1 byte identity to the solo
# daemon and the fleet exposition.
test:
	dune runtest

bench:
	dune exec bench/main.exe

lint:
	sh tools/lint.sh

# CI runs the suite under both FPGAPART_JOBS=1 and FPGAPART_JOBS=4 (the
# tests read the variable to size the domain pool; the contracts test
# compares jobs=1 and jobs=4 runs itself).
ci: build lint
	FPGAPART_JOBS=1 dune runtest --force
	FPGAPART_JOBS=4 dune runtest --force

clean:
	dune clean
