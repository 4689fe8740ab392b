#!/usr/bin/env bash
# Builds the repository benchmark from source and runs it. Run it from the
# repository root:
#
#   bash repobench/run.sh --workload paper-suite --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run write goes under $CARGO_TARGET_DIR
# (default .bench_build) inside the checkout: the Go build cache, the
# binary, the reports and the span files.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/tmp"

# Keep the go command's caches, temporary files and telemetry inside the
# checkout too.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off

(cd "$root/repobench" && go build -o "$out/repobench" .)
exec "$out/repobench" -root "$root" -out "$out/repobench-out" "$@"
