#!/bin/sh
# Builds clbench from source and runs it from the root of a clperf
# checkout; arguments pass through, e.g.
#
#   sh clbench/run.sh --workload suite --seed 1 --seconds 20 --trace 0
#
# Build state (Go build cache, binary, traced-run output) stays under
# .bench_build/ in the checkout. The build needs only the standard
# library and the repository, so it runs with the module proxy off.
set -eu
root=$(pwd)
out="$root/.bench_build/clbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOWORK=off GOFLAGS=
(cd "$root/clbench" && go build -o "$out/clbench" .)
exec "$out/clbench" "$@"
