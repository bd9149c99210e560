#!/usr/bin/env bash
# Builds perfbench from the checkout it sits in and runs it with the given
# arguments. Run from the checkout root:
#
#   bash perfbench/run.sh --workload insitu-steal --seed 1 --seconds 20 --trace 0
#
# Every build and run artefact stays under .bench_build in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOENV=off GOTELEMETRY=off
go -C "$root/perfbench" build -o "$out/perfbench" . >&2
exec "$out/perfbench" --dir "$out/run" "$@"
