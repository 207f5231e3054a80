#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Everything the build and the run write (Go build cache, temporary files,
# the binary, job stores) stays under .bench_build/ and bench/out/ in the
# checkout this script lives in.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export SEMBENCH_ROOT="$(dirname "$here")"
build="$SEMBENCH_ROOT/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" # the go command keeps its env file and telemetry counters there
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$build/sembench" .)
exec "$build/sembench" "$@"
