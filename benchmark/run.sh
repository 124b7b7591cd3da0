#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Everything it writes — the Go build cache, the binary, spill files, span
# files — stays under .bench_build/ in the checkout, so a run touches
# nothing outside the tree it was started in.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp"
export GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false

(cd "$here" && go build -o "$out/benchmark" .)

# The benchmark records the commit it measured; a checkout need not be a
# git repository, and then it is recorded as unknown.
BENCH_COMMIT="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || true)"
export BENCH_COMMIT

cd "$root"
exec "$out/benchmark" "$@"
