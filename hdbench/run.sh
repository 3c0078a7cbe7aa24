#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; every argument is passed to the benchmark binary, e.g.
#
#   bash hdbench/run.sh --workload fleet-ingest --seed 1 --seconds 20 --trace 0
#
# The build cache, the binary and everything a run writes stay under
# .bench_build/ in the current directory. Without the repository's source
# the build fails and the script exits non-zero without printing a result.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
# XDG_CONFIG_HOME and GOPATH keep the go command's own files (telemetry
# counters, module paths) inside the checkout too.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOMODCACHE="$out/gopath/pkg/mod" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off GOENV=off
go -C hdbench build -o "$out/hdbench" . >&2
exec "$out/hdbench" "$@"
