#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload:
#
#   bash cmd/imcperf/run.sh --workload maf-facebook --seed 1 --seconds 25 --trace 0
#
# Run it from anywhere; it works from the repository root. Every file it
# writes (Go build cache, binary, scratch caches, span traces) goes
# under .bench_build/ at the root.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
cd "$root"
if [[ ! -f go.mod || ! -d internal/expt ]]; then
	echo "imcperf: $root holds no imc module to build (go.mod, internal/expt missing)" >&2
	exit 1
fi

out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOFLAGS=

go -C cmd/imcperf build -o "$out/imcperf" .
exec "$out/imcperf" "$@"
