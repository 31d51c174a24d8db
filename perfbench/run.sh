#!/usr/bin/env bash
# Builds the benchmark and the predabsd daemon from the sources in the
# current directory (the repository root), then runs the benchmark with
# the given arguments. Build outputs and the Go build cache stay under
# .bench_build in the current directory.
#
#   bash perfbench/run.sh --workload table2-abstract --seed 1 --seconds 30 --trace 0
#   bash perfbench/run.sh --short          # smoke test: one pass of every workload
set -euo pipefail

if [[ ! -f go.mod || ! -d perfbench ]]; then
	echo "perfbench: run from the repository root" >&2
	exit 2
fi
out="$PWD/.bench_build"
mkdir -p "$out/bin"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local
go build -o "$out/bin/perfbench" ./perfbench
go build -o "$out/bin/predabsd" ./cmd/predabsd
commit=$(git rev-parse --short=12 HEAD 2>/dev/null || echo unknown)
exec "$out/bin/perfbench" -predabsd "$out/bin/predabsd" -workdir "$out" -commit "$commit" "$@"
