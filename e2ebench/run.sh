#!/usr/bin/env bash
# Build the end-to-end benchmark and the fpgapart binary its fleet workers
# exec, from source, then run it; arguments pass through to main.exe (see
# e2ebench/README.md). Build output goes to stderr, so the last line of
# stdout stays the run's JSON result.
set -eu
cd "$(dirname "$0")/.."
dune build --root . ./e2ebench/main.exe ./bin/fpgapart.exe >&2
exec ./_build/default/e2ebench/main.exe "$@"
