#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it:
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Run it from the repository root. Build output and the Go build cache go
# to .bench_build/ in that root, so nothing is written outside it.
set -euo pipefail
root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
