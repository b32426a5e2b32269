#!/usr/bin/env bash
# Builds the harness from this checkout's source and runs it. Every
# byte the build writes stays inside the checkout, under .bench_build/.
set -euo pipefail
bench=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$bench")
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local
(cd "$bench" && go build -o "$out/bench" .)
cd "$root"
exec "$out/bench" "$@"
