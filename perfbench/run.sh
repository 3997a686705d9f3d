#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it from the
# checkout root, passing every argument through:
#
#   bash perfbench/run.sh --workload fig7 --seed 1 --seconds 40 --trace 0
#
# The build cache, temporary files and run records stay under the
# checkout's build directory ($CARGO_TARGET_DIR, default .bench_build).
# Without the repository module beside perfbench/ the build fails, and
# so does this script, before anything runs.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
(cd perfbench && go build -o "$out/perfbench-bin" .)
if [ -e .git ]; then
	export PERFBENCH_COMMIT="$(git rev-parse HEAD)"
else
	# Not a git checkout: name the code by a digest of its sources.
	export PERFBENCH_COMMIT="src-$(find . -path ./.bench_build -prune -o \( -name '*.go' -o -name go.mod \) -type f -print |
		LC_ALL=C sort | xargs sha256sum | sha256sum | cut -c1-16)"
fi
exec "$out/perfbench-bin" "$@"
