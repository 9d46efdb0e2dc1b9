#!/usr/bin/env bash
# Builds the perfbench benchmark and the coolserved daemon from the
# source tree this script sits in, then runs perfbench. Run it from the
# repository root:
#
#   bash perfbench/run.sh --workload sweep --seed 1 --seconds 40 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the
# current directory (Go build cache and the go command's config and
# telemetry directory included), so the first run in a fresh checkout
# compiles the standard library as well.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd "$root/perfbench" &&
	go build -o "$out/perfbench" . &&
	go build -o "$out/coolserved" repro/cmd/coolserved)

exec "$out/perfbench" -coolserved "$out/coolserved" -workdir "$out" "$@"
