#!/usr/bin/env bash
# Runs alternating parent/change pairs of the benchmark (bench/run.sh,
# unchanged, each revision's own) and writes the comparison as JSON:
#
#   bash pairs.sh [-n PAIRS] [-w "WORKLOAD ..."] [-o OUT.json] PARENT CHANGE [-- RUN.SH ARGS...]
#   bash pairs.sh -n 10 -w sb7_rw -o pairs.json HEAD~1 HEAD -- --seed 1 --seconds 20 --trace 0
#
# PARENT and CHANGE are git revisions of this repository. Each is checked
# out with `git worktree add --detach` under one temporary directory,
# which is removed (worktrees unregistered) when the script exits. The
# workloads run one at a time: all pairs of the first, then the next.
# Pair i runs the parent first when i is odd and the change first when i
# is even, so drift over a session hits both sides alike.
#
# For every metric of the runs' result lines, per workload, the JSON
# holds both sides' values in pair order, their median and quartiles
# (linear interpolation), the parent's IQR, the change's wins over the
# parent (by the metric's direction in BENCHMARK.json), the median's
# relative change, whether that change is a gain beyond the parent's
# IQR, and, for an end-to-end metric, its BENCHMARK.json bound and
# whether the change is worse than the bound allows. Per-layer metrics
# (traced runs) carry no bound.
#
# These are wall-clock measurements of the machine the script ran on.
# CI runs the script only as a smoke test (HEAD against HEAD at a tiny
# scale) and gates no number it produces.
#
# Exit codes: 0 ok; 1 a run failed or reported failed operations;
# 2 usage or set-up error.
set -uo pipefail

usage() {
	sed -n '2,7p' "${BASH_SOURCE[0]}" | sed 's/^# \{0,1\}//' >&2
	exit 2
}

pairs=10
workloads="sb7_rw"
out=""
while getopts "n:w:o:h" opt; do
	case "$opt" in
	n) pairs="$OPTARG" ;;
	w) workloads="$OPTARG" ;;
	o) out="$OPTARG" ;;
	*) usage ;;
	esac
done
shift $((OPTIND - 1))
[ $# -ge 2 ] || usage
parent_rev="$1" change_rev="$2"
shift 2
if [ $# -gt 0 ]; then
	[ "$1" = "--" ] || usage
	shift
fi
runargs=("$@")
case "$pairs" in '' | *[!0-9]* | 0) echo "pairs.sh: -n wants a positive count" >&2; exit 2 ;; esac
for a in ${runargs[@]+"${runargs[@]}"}; do
	case "$a" in
	-workload | --workload | -workload=* | --workload=* | -out | --out | -out=* | --out=* | -compare | --compare)
		echo "pairs.sh: pass workloads with -w; $a is the script's to set" >&2
		exit 2
		;;
	esac
done
for w in $workloads; do
	[ "$w" != all ] || { echo "pairs.sh: name the workloads; 'all' mixes traced runs into the set" >&2; exit 2; }
done
command -v jq >/dev/null || { echo "pairs.sh: jq not found" >&2; exit 2; }

repo="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
parent_sha="$(git -C "$repo" rev-parse --verify "$parent_rev^{commit}")" || exit 2
change_sha="$(git -C "$repo" rev-parse --verify "$change_rev^{commit}")" || exit 2

tmp="$(mktemp -d "${TMPDIR:-/tmp}/pairs.XXXXXX")" || exit 2
cleanup() {
	for side in parent change; do
		[ -d "$tmp/$side" ] && git -C "$repo" worktree remove --force "$tmp/$side" >/dev/null 2>&1
	done
	git -C "$repo" worktree prune >/dev/null 2>&1
	rm -rf "$tmp"
}
trap cleanup EXIT
trap 'exit 2' INT TERM

git -C "$repo" worktree add --quiet --detach "$tmp/parent" "$parent_sha" || exit 2
git -C "$repo" worktree add --quiet --detach "$tmp/change" "$change_sha" || exit 2
bounds="$tmp/change/BENCHMARK.json"

# run SIDE WORKLOAD: one bench/run.sh run in SIDE's worktree; its result
# line (the last line of standard output) is appended to the workload's
# file of SIDE's results.
run() {
	local side="$1" w="$2" line rc
	(cd "$tmp/$side" && bash bench/run.sh --workload "$w" ${runargs[@]+"${runargs[@]}"}) >"$tmp/stdout" 2>"$tmp/stderr"
	rc=$?
	line="$(tail -n 1 "$tmp/stdout")"
	if ! jq -e '.metrics' <<<"$line" >/dev/null 2>&1; then
		echo "pairs.sh: $side $w: no result line (exit $rc); its standard error ends:" >&2
		tail -n 20 "$tmp/stderr" >&2
		exit 1
	fi
	echo "$line" >>"$tmp/$w.$side.jsonl"
	[ "$rc" = 0 ] || failed=1
}

failed=0
for w in $workloads; do
	for ((i = 1; i <= pairs; i++)); do
		if ((i % 2)); then order="parent change"; else order="change parent"; fi
		for side in $order; do
			echo "pairs.sh: $w pair $i/$pairs: $side" >&2
			run "$side" "$w"
		done
	done
done

# The comparison, one object per workload.
for w in $workloads; do
	jq -n --arg w "$w" \
		--slurpfile p "$tmp/$w.parent.jsonl" \
		--slurpfile c "$tmp/$w.change.jsonl" \
		--slurpfile b "$bounds" '
	def quant($q): sort as $s | ($s | length) as $n
		| if $n == 0 then null else
			(($n - 1) * $q) as $pos | ($pos | floor) as $lo | ($pos | ceil) as $hi
			| $s[$lo] + ($s[$hi] - $s[$lo]) * ($pos - $lo) end;
	def summary: {values: ., q1: quant(0.25), median: quant(0.5), q3: quant(0.75)};
	($b[0].end_to_end | map({key: .name, value: .}) | from_entries) as $e2e
	| ($b[0].per_layer | map({key: .name, value: .}) | from_entries) as $layer
	| {
		workload: $w,
		runs: {
			parent: [$p[] | {correct, attempted, failed}],
			change: [$c[] | {correct, attempted, failed}]
		},
		metrics: ([$p[0].metrics | keys[] | select(. as $k | $c[0].metrics | has($k))] | map(. as $k
			| ($e2e[$k] // $layer[$k]) as $spec
			| [$p[] | .metrics[$k].value] as $pv
			| [$c[] | .metrics[$k].value] as $cv
			| select(($pv + $cv) | all(type == "number"))
			| ($pv | summary) as $ps | ($cv | summary) as $cs
			| ($spec.better // "higher") as $better
			| (if $ps.median == 0 then null else ($cs.median - $ps.median) / ($ps.median | fabs) end) as $delta
			| ($ps.q3 - $ps.q1) as $iqr
			| {
				key: $k,
				value: {
					unit: $p[0].metrics[$k].unit,
					better: $better,
					bound: ($e2e[$k].bound // null),
					parent: ($ps + {iqr: $iqr}),
					change: $cs,
					wins: ([range(0; [$pv, $cv] | map(length) | min) | select(
						if $better == "lower" then $cv[.] < $pv[.] else $cv[.] > $pv[.] end)] | length),
					pairs: ([$pv, $cv] | map(length) | min),
					median_change: $delta,
					gain_beyond_parent_iqr: (if $better == "lower"
						then $ps.median - $cs.median > $iqr
						else $cs.median - $ps.median > $iqr end),
					worse_beyond_bound: (if $e2e[$k].bound == null or $delta == null then null
						elif $better == "lower" then $delta > $e2e[$k].bound
						else -$delta > $e2e[$k].bound end)
				}
			}) | from_entries)
	}' >"$tmp/$w.summary.json" || exit 2
done

args_json="$(for a in ${runargs[@]+"${runargs[@]}"}; do printf '%s\n' "$a"; done | jq -R . | jq -s -c .)" || exit 2
result="$(jq -n \
	--arg parent "$parent_sha" --arg change "$change_sha" --argjson pairs "$pairs" --argjson args "$args_json" '{
		parent: $parent, change: $change, pairs: $pairs, run_args: $args,
		note: "wall-clock measurements of one machine; CI gates none of these numbers",
		workloads: {}
	}')" || exit 2
for w in $workloads; do
	result="$(jq --arg w "$w" --slurpfile s "$tmp/$w.summary.json" '.workloads[$w] = $s[0]' <<<"$result")" || exit 2
done
if [ -n "$out" ]; then
	echo "$result" >"$out" || exit 2
else
	echo "$result"
fi
if [ "$failed" != 0 ] || ! jq -e '[.workloads[].runs[][] | .failed == 0 and .correct] | all' <<<"$result" >/dev/null; then
	echo "pairs.sh: some run failed or reported failed operations" >&2
	exit 1
fi
exit 0
