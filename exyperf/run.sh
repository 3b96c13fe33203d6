#!/usr/bin/env bash
# Builds the exyperf benchmark from source and runs it with the given
# arguments. Run from the repository root:
#
#	bash exyperf/run.sh --workload serve_mixed --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory: the Go build cache, temporary files, toolchain
# state, the binary, span files and reports.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local
go -C exyperf build -o "$out/exyperf-bin" .
exec "$out/exyperf-bin" "$@"
