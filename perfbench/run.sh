#!/usr/bin/env bash
# Builds perfbench from this checkout and runs it with the given flags:
#   bash perfbench/run.sh --workload engine-b1000 --seed 1 --seconds 25 --trace 0
# Run from the repository root. Build outputs, the Go build cache and the
# benchmark's span and repeat-check files stay under ${CARGO_TARGET_DIR:-.bench_build}.
set -euo pipefail
if [ ! -f go.mod ] || [ ! -d internal ] || [ ! -f perfbench/go.mod ]; then
	echo "perfbench: run from the root of a multidiag checkout" >&2
	exit 2
fi
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
# The go command keeps its settings and telemetry under the user config dir.
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
