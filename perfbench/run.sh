#!/usr/bin/env bash
# Builds the benchmark from the source tree it is run in and runs it with
# the given arguments, e.g.
#
#   bash perfbench/run.sh --workload tao-local --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. The Go build cache, temporary files and
# the binary all stay under .bench_build in that directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/tmp" GOPATH="$out/go" \
	GOMODCACHE="$out/go/pkg/mod" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOFLAGS=-mod=readonly

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
