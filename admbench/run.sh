#!/usr/bin/env bash
# Builds the admission benchmark from the checkout's sources and runs it:
#   bash admbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Everything the build writes (binary, Go build cache, telemetry) stays
# under the build directory, $CARGO_TARGET_DIR or .bench_build.
set -euo pipefail
cd "$(dirname "$0")/.."
build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build/tmp"
build="$(cd "$build" && pwd)"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off \
	GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config"
go build -C admbench -o "$build/admbench" .
exec "$build/admbench" --out "$build" "$@"
