#!/usr/bin/env bash
# Builds the benchmark from the source of the checkout it is run in, then
# runs it with the given arguments. Run it from the repository root:
#
#   bash regionbench/run.sh --workload inproc-saturate --seed 1 --seconds 20 --trace 0
#
# Everything the build and the runs write stays under $CARGO_TARGET_DIR
# (default .bench_build) in the repository root.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/gocache" "$out/tmp" "$out/config"

export GOCACHE=$out/gocache GOTMPDIR=$out/tmp GOPATH=$out/gopath \
	XDG_CONFIG_HOME=$out/config GOTOOLCHAIN=local GOFLAGS=
(cd "$root/regionbench" && go build -o "$out/regionbench" .) >&2
exec "$out/regionbench" --trace-dir "$out/trace" "$@"
