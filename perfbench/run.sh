#!/usr/bin/env bash
# Builds perfbench from this checkout and runs it:
#
#   bash perfbench/run.sh --workload tm-rbtree --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Build output, the Go build cache, data
# directories and trace files all stay under .bench_build in the checkout.
set -euo pipefail
root=$(pwd)
work=.bench_build
mkdir -p "$work"
work=$(cd "$work" && pwd)
export GOCACHE="$work/gocache" GOMODCACHE="$work/gomodcache" GOTOOLCHAIN=local GOFLAGS= GOPROXY=off GOWORK=off
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "run.sh: run from the root of a checkout holding the rhnorec module" >&2
	exit 2
fi
(cd "$root/perfbench" && go build -o "$work/perfbench" .) >&2
exec "$work/perfbench" -work "$work" "$@"
