#!/usr/bin/env bash
# perf/pairs.sh — paired parent/change runs of the repository's benchmark,
# the measurement a PR that claims (or must rule out) a wall-clock change
# records in perf/TRAJECTORY.csv.
#
#   bash perf/pairs.sh [-n ROUNDS] [-p PARENT] [-s SEED] [-w "WORKLOADS"] [-a PR]
#
# Runs ROUNDS (default 6) rounds; a round runs, for each workload,
#   bash bench/run.sh --workload W --seed SEED --seconds 15 --trace 0
# once on the parent and once on the change. The change is the working
# tree this script is started from (its root); the parent is a copy of
# commit PARENT (default HEAD) extracted with `git archive` under
# $SCRATCH/pairs (default /root/scratch/pairs; a scratch copy, not a
# `git worktree`, so nothing is registered in the repository). Each side
# builds from its own source, as BENCHMARK.json's command does.
#
# The side that goes first alternates per round: on a small box the
# second of two back-to-back runs reads 3-10 % slower whichever binary it
# is, and a fixed order would book that to one side.
#
# Prints, per workload and gated metric, median [IQR] of both sides and
# in how many rounds the change read better. The per-run values stay in
# $SCRATCH/pairs/runs-seedSEED.tsv (side, round, workload, metric,
# value), one file per seed, so a run at one seed keeps another's. IQR is Q3-Q1 with linear
# interpolation. A run that is not `"correct":true` with `"failed":0`
# aborts the script. With -a PR the rows are appended to
# perf/TRAJECTORY.csv:
#
#   pr,commit,seed,workload,metric,parent_median,parent_iqr,change_median,change_iqr,n
#
# where commit is PARENT's short hash — the commit the change was
# measured on top of (the change's own hash does not exist yet when its
# rows are taken) — and n the number of rounds. The file is append-only:
# one block per PR, never rewritten.
set -euo pipefail

rounds=6 parent=HEAD seed=1 pr=
workloads="htap-split dash-repeat scan-unique oltp-durable"
while getopts "n:p:s:w:a:" opt; do
	case $opt in
	n) rounds=$OPTARG ;;
	p) parent=$OPTARG ;;
	s) seed=$OPTARG ;;
	w) workloads=$OPTARG ;;
	a) pr=$OPTARG ;;
	*) sed -n '2,8p' "$0" >&2; exit 2 ;;
	esac
done

# metric:direction — the seven end-to-end metrics BENCHMARK.json gates.
metrics="setup_s:lower ops_per_s:higher lane0_ops_per_s:higher lane1_ops_per_s:higher
primary_p95_us:lower heap_after_setup_mib:lower alloc_kib_per_op:lower"

change=$(git rev-parse --show-toplevel)
cd "$change"
commit=$(git rev-parse --short "$parent")
work=${SCRATCH:-/root/scratch}/pairs
rm -rf "$work/parent"
mkdir -p "$work/parent"
git archive "$parent" | tar -x -C "$work/parent"
runs="$work/runs-seed$seed.tsv" # side, round, workload, metric, value
: >"$runs"

# run_one SIDE DIR ROUND WORKLOAD: one benchmark run, its metrics to $runs.
run_one() {
	local side=$1 dir=$2 round=$3 w=$4 json m
	json=$(cd "$dir" && bash bench/run.sh --workload "$w" --seed "$seed" --seconds 15 --trace 0 | tail -n 1)
	case $json in
	'{"correct":true,'*'"failed":0,'*) ;;
	*) echo "pairs: $side $w round $round did not verify: $json" >&2; exit 1 ;;
	esac
	for m in $metrics; do
		m=${m%%:*}
		printf '%s\t%s\t%s\t%s\t%s\n' "$side" "$round" "$w" "$m" \
			"$(printf '%s' "$json" | sed -E "s/.*\"$m\":\{\"value\":([^,}]*).*/\1/")" >>"$runs"
	done
}

for round in $(seq 1 "$rounds"); do
	for w in $workloads; do
		if ((round % 2)); then
			run_one parent "$work/parent" "$round" "$w"
			run_one change "$change" "$round" "$w"
		else
			run_one change "$change" "$round" "$w"
			run_one parent "$work/parent" "$round" "$w"
		fi
		echo "pairs: round $round/$rounds $w done" >&2
	done
done

# Summarize: one line per workload × metric.
summary=$(awk -F'\t' -v metrics="$metrics" -v workloads="$workloads" '
function quantile(a, n, q,    h, lo) {
	h = (n - 1) * q + 1; lo = int(h)
	if (lo >= n) return a[n]
	return a[lo] + (h - lo) * (a[lo + 1] - a[lo])
}
function stats(side, w, m, out,    n, i, j, v, a) {
	n = 0
	for (i = 1; (side, i, w, m) in val; i++) a[++n] = val[side, i, w, m]
	# insertion sort: n is a handful
	for (i = 2; i <= n; i++) { v = a[i]; for (j = i - 1; j >= 1 && a[j] > v; j--) a[j + 1] = a[j]; a[j + 1] = v }
	out["n"] = n; out["med"] = quantile(a, n, 0.5); out["iqr"] = quantile(a, n, 0.75) - quantile(a, n, 0.25)
}
{ val[$1, $2, $3, $4] = $5 }
END {
	nm = split(metrics, ms, /[ \n]+/); nw = split(workloads, ws, / +/)
	for (wi = 1; wi <= nw; wi++) for (mi = 1; mi <= nm; mi++) {
		split(ms[mi], md, ":"); m = md[1]; w = ws[wi]
		stats("parent", w, m, p); stats("change", w, m, c)
		wins = 0
		for (i = 1; i <= p["n"]; i++) {
			d = val["change", i, w, m] - val["parent", i, w, m]
			if ((md[2] == "higher" && d > 0) || (md[2] == "lower" && d < 0)) wins++
		}
		printf "%s\t%s\t%.6g\t%.4g\t%.6g\t%.4g\t%d\t%d\n", w, m, p["med"], p["iqr"], c["med"], c["iqr"], p["n"], wins
	}
}' "$runs")

printf '%-13s %-22s %14s %10s   %14s %10s   %s\n' workload metric parent '[IQR]' change '[IQR]' 'change better'
printf '%s\n' "$summary" | awk -F'\t' '{ printf "%-13s %-22s %14s %10s   %14s %10s   %d/%d\n", $1, $2, $3, "[" $4 "]", $5, "[" $6 "]", $8, $7 }'
echo "pairs: per-run values in $runs"

if [ -n "$pr" ]; then
	printf '%s\n' "$summary" | awk -F'\t' -v pr="$pr" -v commit="$commit" -v seed="$seed" \
		'{ printf "%s,%s,%s,%s,%s,%s,%s,%s,%s,%s\n", pr, commit, seed, $1, $2, $3, $4, $5, $6, $7 }' >>perf/TRAJECTORY.csv
	echo "pairs: appended $(printf '%s\n' "$summary" | wc -l) rows to perf/TRAJECTORY.csv"
fi
