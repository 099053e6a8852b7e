#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload predict-miss --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Build outputs (the binary, the Go build
# cache and the go command's own configuration and telemetry files) go to
# .bench_build/ under the current directory.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$PWD/.bench_build"
mkdir -p "$out"
GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local \
	go build -C "$here" -o "$out/perfbench" .
exec "$out/perfbench" "$@"
