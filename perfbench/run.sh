#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the root of a
# checkout:
#
#	bash perfbench/run.sh --workload index --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and trace files stay under
# .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off
# Injected faults would add latency that is not the program's own.
unset FAULT_RATE FAULT_SEED

go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" -trace-dir "$out/traces" "$@"
