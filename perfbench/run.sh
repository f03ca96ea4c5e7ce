#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload tealeaf-cg --seed 1 --seconds 30 --trace 0
#
# Everything the build writes (Go build and module caches, temporary
# files, the binary, span files) stays under $CARGO_TARGET_DIR, default
# .bench_build, inside the checkout. The build needs no network.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal ]]; then
	echo "perfbench: run from the repository root: the program's sources (go.mod, internal/) are missing" >&2
	exit 2
fi
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
export CARGO_TARGET_DIR="$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= CGO_ENABLED=0
mkdir -p "$TMPDIR"
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
