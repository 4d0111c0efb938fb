#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root.
# Everything the Go toolchain writes (build cache, temporary files, its own
# settings directory) is kept under .bench_build in the checkout.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
build=$root/.bench_build
mkdir -p "$build/tmp"
export GOENV=off GOWORK=off GOTOOLCHAIN=local
export GOCACHE=$build/gocache GOTMPDIR=$build/tmp XDG_CONFIG_HOME=$build/config
# No VCS stamping: the driver's checkout is not a repository, and a checkout
# owned by another user makes the stamping step fail the build. The commit,
# when there is one, reaches the result files through the environment.
(cd "$here" && go build -buildvcs=false -o "$build/rdmc-benchmark" .)
cd "$root"
RDMC_BENCHMARK_COMMIT=$(git rev-parse HEAD 2>/dev/null || echo unknown)
export RDMC_BENCHMARK_COMMIT
exec "$build/rdmc-benchmark" "$@"
