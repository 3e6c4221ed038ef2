#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it:
#
#   bash benchmark/run.sh --workload vc-weights --seed 1 --seconds 30 --trace 0
#   bash benchmark/run.sh steady --workload serve-mix --runs 10 --seconds 30
#
# Run it from the root of the repository.  The binary, the Go build
# cache and the Go tool's own files (module cache, config, telemetry)
# live under .bench_build/ there, so nothing is written outside the
# checkout; the first build compiles the standard library into that
# cache and takes a minute or two.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -buildvcs=false -o "$out/benchmark" .)
cd "$root"
exec "$out/benchmark" "$@"
