#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run it from the repository root:
#
#   bash perfbench/run.sh --workload local-suite --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/go-cache" "$out/go-tmp" "$out/config" "$out/gopath"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/go-tmp" XDG_CONFIG_HOME="$out/config" \
	GOPATH="$out/gopath" GOTOOLCHAIN=local
(cd perfbench && go build -o "$out/perfbench-bin" .)
exec "$out/perfbench-bin" "$@"
