#!/usr/bin/env bash
# Build the host-cost benchmark in release, in its own build directory,
# and run it with the given arguments, e.g.
#   bash perfbench/run.sh --workload stream-lw-sat --seed 1 --seconds 20 --trace 0
# Build output goes to stderr so the result stays the last stdout line.
set -euo pipefail
cd "$(dirname "$0")/.."
dune build --root . --build-dir .bench_build --profile release --cache=disabled \
  ./perfbench/hostcost.exe 1>&2
exec ./.bench_build/default/perfbench/hostcost.exe "$@"
