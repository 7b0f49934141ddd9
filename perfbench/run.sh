#!/usr/bin/env bash
# Builds the perfbench program from the checkout's sources and runs it with the
# given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload refute --seed 1 --seconds 10 --trace 0
#
# Every build artefact (binary, Go build cache, temporary files, go command
# config) stays under .bench_build/ in the current directory.
set -euo pipefail

if [[ ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root" >&2
	exit 2
fi
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/modcache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/modcache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOENV=off GOWORK=off GOPROXY=off GOFLAGS=-mod=readonly GOTOOLCHAIN=local
(cd perfbench && go build -trimpath -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
