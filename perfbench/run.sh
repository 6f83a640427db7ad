#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout, then runs it with
# the given arguments. The build cache, temporary files, the Go toolchain's
# local telemetry counters and the binary all stay under .bench_build at the
# root of the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" GOENV=off XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=-mod=readonly
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
