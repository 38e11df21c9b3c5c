#!/usr/bin/env bash
# Builds the perfbench binary from the checkout's sources and runs it with
# the given arguments. Run from the root of the checkout:
#
#   bash perfbench/run.sh --workload comb-aes256 --seed 1 --seconds 30 --trace 0
#
# Every file the build or the run writes stays under .bench_build/ in the
# checkout: the Go build cache, the binary, generated inputs, outputs and
# the trace file.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache"
export GOTMPDIR="$out/tmp"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off
go build -C "$root/perfbench" -o "$out/perfbench" . >&2
exec "$out/perfbench" --dir "$out/perfbench-work" "$@"
