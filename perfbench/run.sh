#!/usr/bin/env bash
# Build the benchmark from source and run it; arguments pass through
# to bench.exe (see README.md).  Run from the repository root.
set -eu
cd "$(dirname "$0")/.."
# keep every build artifact inside the checkout
export DUNE_CACHE=disabled
exec dune exec --root . --display quiet -- ./perfbench/bench.exe "$@"
