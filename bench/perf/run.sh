#!/bin/sh
# Builds the benchmark and the daemon it drives from source, then runs
# perf.exe with this script's arguments.  Run it from the repository root:
#
#   sh bench/perf/run.sh --workload fig4-quick --seed 42 --seconds 12 --trace 0
#
# Build output goes to stderr, so the last line of stdout stays perf.exe's
# JSON result.
set -eu
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "bench/perf/run.sh: run from the repository root (no dune-project, lib/ or bin/ here)" >&2
  exit 2
fi
# Keep dune's shared artifact cache out of the home directory.
DUNE_CACHE=disabled dune build --root . --display quiet \
  ./bench/perf/perf.exe ./bin/mppmd.exe 1>&2
exec ./_build/default/bench/perf/perf.exe "$@"
