#!/usr/bin/env bash
# Builds the benchmark harness from source and runs it. Run from the
# repository root:
#
#   bash perfbench/run.sh --workload neon-vga --seed 1 --seconds 10 --trace 0
#
# Every build product (binary, Go build cache) stays under .bench_build/ in
# the current directory, and nothing is fetched: the harness depends only on
# the repository's own module.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOENV=off GOPROXY=off GOTOOLCHAIN=local GOWORK=off

go -C perfbench build -o "$out/bin/perfbench" .
exec "$out/bin/perfbench" "$@"
