#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags:
#   bash benchmark/run.sh --workload kv-cut --seed 1 --seconds 10 --trace 0
# Run it from the repository root. Everything it writes (Go build cache,
# binary, span files) stays under .bench_build in that directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=readonly GOWORK=off GOTOOLCHAIN=local
(cd "$root/benchmark" && go build -o "$out/dynacut-bench" .) >&2
exec "$out/dynacut-bench" "$@"
