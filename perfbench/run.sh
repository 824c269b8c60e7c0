#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the repository root
# and runs it there with the given arguments:
#
#   bash perfbench/run.sh --workload fig5-exact --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh steady -n 5
#   bash perfbench/run.sh regen
#
# Every file the build or the run writes stays under .bench_build/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomod"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
cd "$root"
exec "$out/perfbench" "$@"
