#!/usr/bin/env bash
# Builds the simulator benchmark from this checkout's sources and runs it
# with the given arguments, e.g.
#
#   bash simbench/run.sh --workload ranks-8k --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (binary, Go build cache, temporary files)
# stays under the build directory: $CARGO_TARGET_DIR when set, else
# .bench_build at the checkout root. Nothing is downloaded: the benchmark
# module needs only the standard library and the srmcoll module beside it.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/gocache" "$build/tmp"

export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomod"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOENV=off

(cd "$root/simbench" && go build -o "$build/simbench" .)
cd "$root"
exec "$build/simbench" "$@"
