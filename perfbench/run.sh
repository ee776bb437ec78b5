#!/usr/bin/env bash
# Builds secreta-serve and the benchmark from source, then runs one
# benchmark workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload rt-cluster --seed 1 --seconds 30 --trace 0
#
# Every build product and cache stays under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/secreta-serve" ]; then
	echo "perfbench: run from the repository root (no go.mod or cmd/secreta-serve here)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOFLAGS=-mod=mod
go build -o "$out/secreta-serve" ./cmd/secreta-serve
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -bin "$out/secreta-serve" -work "$out" "$@"
