#!/usr/bin/env bash
# Builds the cold-path benchmark from source and runs it. Run it from the
# root of a checkout:
#
#   bash coldbench/run.sh --workload topn-cold --seed 1 --seconds 10 --trace 0
#
# The build cache, the binary and the effort-counter logs all live under
# .bench_build/coldbench in the checkout; nothing is fetched over the network.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/coldbench"
mkdir -p "$out/tmp"
# XDG_CONFIG_HOME keeps the go command's config and telemetry files in the
# checkout too.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
(cd "$root/coldbench" && go build -o "$out/coldbench" .)
exec "$out/coldbench" --state-dir "$out/effort" "$@"
