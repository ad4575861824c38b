#!/usr/bin/env bash
# Builds hmptbench from the checkout's sources and runs one measurement:
#
#   bash hmptbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the root of the checkout. The Go build cache, the binary,
# the cache trees of the run and the traced run's spans all stay under
# .bench_build there.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS= GOENV=off
(cd "$root/hmptbench" && go build -o "$out/hmptbench" .)
exec "$out/hmptbench" --work-dir "$out/work" --spans-dir "$out/spans" "$@"
