#!/usr/bin/env bash
# Builds the fleet benchmark from source and runs it. Everything the Go
# toolchain writes (build cache, temp files, the binary) stays under
# .bench_build in the checkout; no network, no toolchain download.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gomod"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomod"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go -C "$here" build -buildvcs=false -o "$out/fleetbench" .
cd "$root"
exec "$out/fleetbench" "$@"
