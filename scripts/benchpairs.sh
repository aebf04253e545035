#!/usr/bin/env bash
# Alternating-pairs comparison of the cycle benchmark between two
# revisions, written as one BENCH_*.json file.
#
# Each revision's tree is exported (git archive, or the working tree as
# it stands for the name WORKTREE) into a temporary directory and its
# benchmark/ built once, the way benchmark/run.sh builds it (local
# toolchain, a Go build cache of its own, shared by the two builds).
# scripts/benchpairs then runs the two binaries in pairs, one fresh seed
# per pair, swapping which side runs first every pair, and writes both
# medians, both IQRs, the candidate's wins and a verdict per workload and
# end-to-end metric of BENCHMARK.json, with the machine, seeds and
# window. Once the file is written it exits 1 if an exact count of an
# engine workload differs between the two sides or any verdict is
# "worse". benchmark/ and BENCHMARK.json are only read.
#
#   scripts/benchpairs.sh BASE CANDIDATE OUT.json [runner flags]
#
#   scripts/benchpairs.sh HEAD~1 HEAD BENCH_47.json \
#     -workloads engine-normal:10,engine-degraded,wire-fanout,cluster-paced \
#     -pairs 3 -seed 1001 -seconds 15
#
# Runner flags: -workloads name[:pairs],… (default engine-normal),
# -pairs N for a workload given without one (default 3), -seed FIRST
# (default 1001), -seconds WINDOW (default 15).
set -euo pipefail
if [ $# -lt 3 ]; then
	echo "usage: $0 BASE CANDIDATE OUT.json [runner flags]" >&2
	exit 2
fi
base_arg=$1 cand_arg=$2 out="$(realpath -m "$3")"
cd "$(dirname "${BASH_SOURCE[0]}")/.."
shift 3

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
export GOTOOLCHAIN=local GOCACHE="$tmp/gocache"

# export REV DIR writes the revision's tree into DIR and prints the name
# the output records for it.
export_tree() {
	mkdir -p "$2"
	if [ "$1" = WORKTREE ]; then
		# A tracked file deleted in the working tree is left out.
		git ls-files -z --cached --others --exclude-standard |
			tar --null -T - --ignore-failed-read -cf - 2>/dev/null | tar -xf - -C "$2"
		echo "working tree over $(git rev-parse HEAD)"
	else
		local rev
		rev="$(git rev-parse --verify "$1^{commit}")"
		git archive "$rev" | tar -xf - -C "$2"
		echo "$rev"
	fi
}

base_rev="$(export_tree "$base_arg" "$tmp/base")"
cand_rev="$(export_tree "$cand_arg" "$tmp/cand")"
for side in base cand; do
	echo "benchpairs: building the $side benchmark" >&2
	(cd "$tmp/$side/benchmark" && go build -o "$tmp/cyclebench-$side" .)
done
go run ./scripts/benchpairs -base "$tmp/cyclebench-base" -cand "$tmp/cyclebench-cand" \
	-base-rev "$base_rev" -cand-rev "$cand_rev" -o "$out" "$@"
