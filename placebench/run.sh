#!/usr/bin/env bash
# Builds the placement benchmark from the checkout's sources and runs it.
# Usage, from the repository root:
#   bash placebench/run.sh --workload scan-irs --seed 1 --seconds 20 --trace 0
# Build products, the Go build cache and the Go tool's own configuration
# and telemetry stay under .bench_build/ in the current directory, so
# nothing is written outside the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/go-mod"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off
(cd "$(dirname "$0")" && go build -o "$out/placebench" .)
exec "$out/placebench" "$@"
