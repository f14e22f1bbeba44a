#!/usr/bin/env bash
# Builds the benchmark and tcserve from this source tree, then runs the
# benchmark with the given arguments. Run from anywhere; paths resolve
# against the repository root (the parent of this directory). Build
# outputs, the Go build cache and run scratch stay under .bench_build/.
#
#   bash perfbench/run.sh --workload eval-matmul8 --seed 1 --seconds 25 --trace 0
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build/perfbench"
mkdir -p "$out/home" "$out/gocache" "$out/gotmp"

# Keep the toolchain's caches and config inside the checkout.
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" TMPDIR="$out/gotmp" GOPATH="$out/home/go"
export GOFLAGS="" GOWORK=off GOTOOLCHAIN=local GOTELEMETRY=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
(cd "$root" && go build -o "$out/tcserve" ./cmd/tcserve)
exec "$out/perfbench" -tcserve "$out/tcserve" -root "$root" "$@"
