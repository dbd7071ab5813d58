#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload. From the
# repository root:
#
#   bash perfbench/run.sh --workload churn --seed 1 --seconds 10 --trace 0
#
# The binary, the Go build cache and the traced run's spans
# (.bench_build/spans.tsv) stay under .bench_build/ in the repository.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(dirname "$here")/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOPATH="$out/go-path" GOMODCACHE="$out/go-path/pkg/mod"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go -C "$here" build -o "$out/perfbench" .
exec "$out/perfbench" "$@" --spans "$out/spans.tsv"
