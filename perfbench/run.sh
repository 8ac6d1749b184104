#!/bin/sh
# Build the benchmark from this checkout (release profile, no shared
# dune cache) and run it with the arguments given, e.g.
#   sh perfbench/run.sh --workload point --seed 1 --seconds 10 --trace 0
set -eu
dune build --root . --profile release --cache=disabled --display quiet perfbench/bench.exe 1>&2
exec ./_build/default/perfbench/bench.exe "$@"
