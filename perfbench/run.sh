#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs one workload.
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#   bash perfbench/run.sh --compare OLD NEW    # result files or directories
#
# Run it from the root of the repository. Everything the build and the runs
# leave behind goes under $CARGO_TARGET_DIR (default .bench_build): the Go
# build cache, the binary, and results/ with one JSON file per run plus the
# CPU profile of each traced run. The last line of standard output is the
# run's result as one JSON object; build output goes to standard error.
set -euo pipefail

if [[ ! -f perfbench/go.mod ]]; then
	echo "perfbench/run.sh: run from the repository root" >&2
	exit 2
fi
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"

# Keep the toolchain's caches and config inside the checkout.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
mkdir -p "$GOTMPDIR"

(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --out "$out/results" "$@"
