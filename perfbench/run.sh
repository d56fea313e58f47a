#!/bin/sh
# Builds the benchmark harness and the ecod binary from the source tree in
# the current directory (the repository root), then runs the harness with
# the given arguments:
#
#   sh perfbench/run.sh --workload daily --seed 1 --seconds 10 --trace 0
#
# Every build artifact, Go cache and scratch file stays under .bench_build/
# so the run reads and writes nothing outside the checkout. Build output
# goes to stderr; the harness prints its JSON result as the last line of
# stdout.
set -eu

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp" "$build/config"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=
export GOWORK=off

(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .) 1>&2
go build -o "$build/bin/ecod" ./cmd/ecod 1>&2

exec "$build/bin/perfbench" -ecod "$build/bin/ecod" -work "$build/tmp" "$@"
