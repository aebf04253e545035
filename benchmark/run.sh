#!/usr/bin/env bash
# Builds the cycle benchmark and runs it with the given arguments.
#
# The binary and the Go build cache both go under .bench_build/ at the
# root of the checkout, so a run reads and writes nothing outside it;
# the first build in a fresh checkout therefore compiles the standard
# library too (about a minute on two cores), later ones are cache hits.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(dirname "$here")/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOTOOLCHAIN=local
(cd "$here" && go build -o "$out/cyclebench" .)
exec "$out/cyclebench" "$@"
