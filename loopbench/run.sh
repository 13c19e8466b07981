#!/usr/bin/env bash
# Builds loopbench from the checkout's sources and runs it, passing every
# argument through. Run it from the root of the repository:
#
#   bash loopbench/run.sh --workload bulk_tcp --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (binary, Go build cache, GOPATH, temporary files)
# goes under ${CARGO_TARGET_DIR:-.bench_build}, inside the checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/loopbench/gocache" "$out/loopbench/gopath" "$out/loopbench/tmp"

export GOENV=off
export GOCACHE=$out/loopbench/gocache
export GOPATH=$out/loopbench/gopath
export GOTMPDIR=$out/loopbench/tmp
export GOPROXY=off
export GOTOOLCHAIN=local
export GOWORK=off

(cd loopbench && go build -o "$out/loopbench/loopbench" .) >&2
exec "$out/loopbench/loopbench" "$@"
