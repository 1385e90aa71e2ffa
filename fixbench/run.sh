#!/usr/bin/env bash
# Builds the fix-path benchmark from source into .bench_build/ under the
# current directory (the repository root) and runs it with the given
# arguments. Every file the Go toolchain writes — build cache, module
# cache, telemetry — stays under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/home"
export HOME="$out/home"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-buildvcs=false
export GOTELEMETRY=off
(cd "$root/fixbench" && go build -o "$out/fixbench" .)
exec "$out/fixbench" "$@"
