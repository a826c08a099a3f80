#!/usr/bin/env bash
# The command BENCHMARK.json names. It builds the harness from source into
# .bench_build/ at the root of the checkout (about 11 s the first time, a
# tenth of a second afterwards) and runs it with the arguments it was given:
#
#   bash benchmark/driver.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything the Go toolchain writes goes under .bench_build/, so a run
# touches nothing outside the checkout. In a directory without the rest of
# the repository the build fails and the script exits non-zero.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off

(cd "$here" && go build -o "$build/benchmark" .)
cd "$root"
exec "$build/benchmark" "$@"
