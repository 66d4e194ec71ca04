#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with
# the given flags. Run from the repository root:
#
#   bash bench/run.sh --workload alg1-grid --seed 1 --seconds 10 --trace 0
#
# Everything the Go toolchain writes — build cache, temporary files,
# its config directory — stays under .bench_build/, and nothing is
# fetched from the network.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOPROXY=off GOTOOLCHAIN=local GOFLAGS=
(cd bench && go build -o "$build/bench" .)
exec "$build/bench" "$@"
