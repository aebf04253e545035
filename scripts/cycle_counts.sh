#!/usr/bin/env bash
# The count gate: traced runs of the cycle benchmark's two engine
# workloads at seed 1 must reproduce every value in cycle_counts.golden.
#
# Each golden line is "workload metric value"; the lines themselves say
# which metrics are checked. All of them are counts the benchmark marks
# exact for a seed and a window (benchmark/README.md, "Counts marked ="):
# cycle counts are fixed by the window length, not a stopwatch, so the
# values do not depend on the machine and any difference is a change of
# behaviour. Timings stay out of this file; they are compared by
# alternating-pair runs as the benchmark README prescribes.
#
#   scripts/cycle_counts.sh            # exit 1 if any count moved
#   scripts/cycle_counts.sh --update   # rewrite the golden's values
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
golden=scripts/cycle_counts.golden

update=0
case "${1:-}" in
"") ;;
--update) update=1 ;;
*)
	echo "usage: $0 [--update]" >&2
	exit 2
	;;
esac

new=""
moved=0
for wl in engine-normal engine-degraded; do
	# The result is the last line: {"correct":…,"metrics":{"<name>":{"value":<v>,…},…}}
	result="$(bash benchmark/run.sh --workload "$wl" --seed 1 --seconds 15 --trace 1 | tail -n 1)"
	if [[ "$result" != '{"correct":true,'* ]]; then
		echo "cycle_counts: $wl did not end in a correct result line" >&2
		exit 1
	fi
	while read -r _ metric want; do
		got="$(grep -o "\"$metric\":{\"value\":[^,}]*" <<<"$result" | cut -d: -f3)" || true
		if [[ -z "$got" ]]; then
			echo "cycle_counts: $wl reports no $metric" >&2
			exit 1
		fi
		new+="$wl $metric $got"$'\n'
		if [[ "$got" != "$want" ]]; then
			echo "MOVED $wl $metric: golden $want, measured $got"
			moved=1
		fi
	done < <(grep "^$wl " "$golden")
done

if ((update)); then
	{
		grep '^#' "$golden" || true
		printf %s "$new"
	} >"$golden.tmp"
	mv "$golden.tmp" "$golden"
	echo "cycle_counts: rewrote $golden"
elif ((moved)); then
	echo "cycle_counts: exact counts moved; if intended, run $0 --update and commit the golden" >&2
	exit 1
else
	echo "cycle_counts: $(grep -c . <<<"$new") exact counts match $golden"
fi
