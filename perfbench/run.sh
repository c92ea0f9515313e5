#!/usr/bin/env bash
# Builds perfbench from source and runs it with the given arguments, from
# the root of a checkout:
#
#   bash perfbench/run.sh --workload sparse-lazy --seed 1 --seconds 40 --trace 0
#
# Every build product, cache and temp file stays under .bench_build/ in the
# checkout. A failed build exits non-zero before anything is measured.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build/perfbench"
mkdir -p "$build/tmp" "$build/config" "$build/gopath"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local

(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
# Return freed heap pages to the kernel lazily (MADV_FREE): transient
# checkpoint buffers then skip a fresh page fault on every reuse, which on
# small VMs costs a tenth of a round and varies from run to run.
export GODEBUG=madvdontneed=0
exec "$build/perfbench" "$@"
