#!/usr/bin/env bash
# Builds powerbenchd and the benchmark from source, then runs one benchmark
# run. Run it from the root of a powerbench checkout:
#
#   bash perfbench/run.sh --workload hit-hot --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout (Go build cache, temp files, binaries, per-run daemon data and
# span files).
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/powerbenchd" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the root of a powerbench checkout" >&2
	exit 1
fi
out="$root/.bench_build"
mkdir -p "$out/tmp"
# XDG_CONFIG_HOME keeps the go command's config and telemetry files in the
# checkout too.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

go build -o "$out/powerbenchd" ./cmd/powerbenchd
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -daemon "$out/powerbenchd" -workdir "$out" "$@"
