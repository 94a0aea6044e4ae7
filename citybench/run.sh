#!/usr/bin/env bash
# Builds citybench from this checkout's source and runs it. Run from
# the repository root; every argument is passed through, e.g.
#
#   bash citybench/run.sh --workload city_ingest --seed 1 --seconds 30 --trace 0
#
# The build cache, its temporary files, the binary, the span files and
# the entry-count record all live under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/citybench" && go build -o "$out/citybench" .)
exec "$out/citybench" --out "$out/citybench-results" "$@"
