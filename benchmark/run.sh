#!/usr/bin/env bash
# Builds beastbench from this checkout and runs it with the given arguments.
# Run from the repository root:
#
#   bash benchmark/run.sh --workload gemm-sweep --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run write (Go build cache, temp files, the
# binary, checkpoints, emitted C, span files) stays under .bench_build/.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/benchmark/go.mod" ]]; then
	echo "run.sh: run from the repository root" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off

go -C "$root/benchmark" build -o "$build/beastbench" .
exec "$build/beastbench" "$@"
