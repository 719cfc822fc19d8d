#!/usr/bin/env bash
# perf/cover.sh — statement coverage over every program: which production
# statements outside bench/ no program executes. A report, not a gate.
#
#   bash perf/cover.sh [-p REV] -a PR
#
# Builds every main of both modules with -cover -coverpkg=hybridstore/...
# (bench's with `go -C bench build`), runs the fixed program list below
# with GOCOVERDIR set, merges the counters with `go tool covdata textfmt`
# and writes perf/profiles/PR/SIDE.cover.txt: the never-executed and total
# statement counts, then per function (file:line:name of its declaration)
# the line ranges no program ran.
# SIDE is "change" for the working tree this script is started from and
# "parent" with -p REV, which measures commit REV instead (extracted with
# `git archive`, built and run from its own source). Exit 1 when a listed
# program fails.
#
# The list passes every flag that gates code. crashtest's -child process
# dies by SIGKILL and never writes its counters, so what only it runs
# (cmd/crashtest) is reported as unmeasured, not as never executed.
set -euo pipefail

rev= pr=
while getopts "p:a:" opt; do
	case $opt in
	p) rev=$OPTARG ;;
	a) pr=$OPTARG ;;
	*) sed -n '2,6p' "$0" >&2; exit 2 ;;
	esac
done
if [ -z "$pr" ]; then
	sed -n '2,6p' "$0" >&2
	exit 2
fi

tree=$(git rev-parse --show-toplevel)
cd "$tree"
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
src=$tree side=change what="working tree on $(git rev-parse --short HEAD)"
if [ -n "$rev" ]; then
	src=$work/src side=parent what=$(git rev-parse --short "$rev")
	mkdir -p "$src"
	git archive "$rev" | tar -x -C "$src"
fi
bin=$work/bin cov=$work/cov run=$work/run
mkdir -p "$bin" "$cov" "$run"

for dir in . bench; do
	for pkg in $(go -C "$src/$dir" list -f '{{if eq .Name "main"}}{{.ImportPath}}{{end}}' ./...); do
		go -C "$src/$dir" build -cover -coverpkg=hybridstore/... -o "$bin/${pkg##*/}" "$pkg"
	done
done

# prog NAME ARGS...: one run of a built program in the scratch directory,
# its output kept for a failure report.
prog() {
	local name=$1
	shift
	echo "cover: $name $*" >&2
	(cd "$run" && GOCOVERDIR=$cov "$bin/$name" "$@" >"$work/out.txt" 2>&1) || {
		cat "$work/out.txt" >&2
		echo "cover: $name $* failed" >&2
		exit 1
	}
}

for p in 0 1 2 3 4 selectivity devicecache compression fusion multidevice resultcache; do
	prog htapbench -panel "$p"
done
prog htapbench -csv -real -real-rows 100000 -verify -verify-rows 30000
prog taxonomy -audit
prog taxonomy -tree
prog linearize
for ex in adaptive_htap gpu_offload lineage metrics quickstart survey; do
	prog "$ex"
done
prog loadgen -selfserve -duration 2s -concurrency 32 -mix write=20,sum=60,group=20
prog loadgen -selfserve -duration 2s -concurrency 8 -unbatched -result-cache 0 \
	-cpuprofile "$run/cpu.prof" -memprofile "$run/mem.prof" -csv "$run/serving.csv"
prog loadgen -selfserve -duration 2s -concurrency 8 -wal "$run/loadgen-wal"
prog loadgen -selfserve -duration 2s -concurrency 8 -wal "$run/loadgen-wal"
# Unique range predicates: the scans miss the result cache (UniqueCut).
prog loadgen -selfserve -duration 2s -concurrency 4 -mix sum=75,group=25 -unique
# A read-only restart pair. Under a mix with writes the last checkpoint
# follows a Merge that retires every image a write touched, so its
# manifest is empty; only a store whose last checkpoint kept device
# images primes the cache on restart (core.PrimeDeviceCache).
prog loadgen -selfserve -duration 2s -concurrency 8 -wal "$run/loadgen-ro-wal" -mix sum=80,group=20
prog loadgen -selfserve -duration 2s -concurrency 8 -wal "$run/loadgen-ro-wal" -mix sum=80,group=20
# Four 500 ms windows must agree before -autoterm stops a run, so the
# ceiling leaves room for them.
prog loadgen -selfserve -duration 4s -concurrency 4 -rate 400 -autoterm
prog crashtest -rounds 1 -acks 200 -csv ""
for w in htap-split dash-repeat scan-unique oltp-durable; do
	prog bench -workload "$w" -seconds 2 -out "$run/bench-$w"
done

# The bench module's own package is not production here, and `go tool
# cover -func` cannot resolve its path: both are reasons to drop it first.
go tool covdata textfmt -i="$cov" -o "$work/all.txt"
{
	head -n 1 "$work/all.txt" # mode: set
	grep '^hybridstore/' "$work/all.txt" | grep -v '^hybridstore/bench/' | sort -t: -k1,1 -k2,2n
} >"$work/prod.txt"
go -C "$src" tool cover -func="$work/prod.txt" >"$work/func.txt"

out=perf/profiles/$pr
mkdir -p "$out"
{
	echo "# perf/cover.sh, $side: $what"
	# func.txt lines: "hybridstore/<file>:<line>:<tab>…<function><tab>…<pct>";
	# prod.txt lines: "hybridstore/<file>:<l0>.<c0>,<l1>.<c1> <stmts> <count>".
	awk '
	FNR == 1 { nfile++ }
	nfile == 1 && /^hybridstore\// {
		split($1, a, ":"); f = substr(a[1], 13)
		fn[f, ++nf[f]] = $2; fl[f, nf[f]] = a[2] + 0
		next
	}
	nfile == 2 && /^hybridstore\// {
		split($1, a, ":"); f = substr(a[1], 13)
		split(a[2], r, /[.,]/)
		k = f SUBSEP r[1] SUBSEP r[3]
		if (!(k in stmts)) { stmts[k] = $2; order[++nk] = k }
		if ($3 > 0) hit[k] = 1
	}
	END {
		for (i = 1; i <= nk; i++) {
			k = order[i]; split(k, b, SUBSEP); f = b[1]
			total += stmts[k]
			if (k in hit) continue
			# The enclosing function: the last one declared at or above the block.
			name = "?"
			for (j = 1; j <= nf[f]; j++) if (fl[f, j] <= b[2] + 0) name = fl[f, j] ":" fn[f, j]
			if (f ~ /^cmd\/crashtest\//) { unmeasured += stmts[k]; continue }
			never += stmts[k]
			key = f ":" name
			if (!(key in ranges)) keys[++nkeys] = key
			ranges[key] = ranges[key] " " b[2] "-" b[3]
		}
		printf "never executed: %d of %d statements (%.1f %%)\n", never, total, 100 * never / total
		printf "unmeasured: %d statements in cmd/crashtest (its -child dies by SIGKILL before writing counters)\n", unmeasured
		print ""
		print "## never-executed line ranges by function"
		for (i = 1; i <= nkeys; i++) {
			n = split(ranges[keys[i]], rs, " ")
			line = ""; lo = -1
			for (j = 1; j <= n; j++) {
				split(rs[j], q, "-"); s = q[1] + 0; e = q[2] + 0
				if (lo >= 0 && s <= hi + 1) { if (e > hi) hi = e; continue }
				if (lo >= 0) line = line " " (lo == hi ? lo : lo "-" hi)
				lo = s; hi = e
			}
			line = line " " (lo == hi ? lo : lo "-" hi)
			print keys[i] line
		}
	}' "$work/func.txt" "$work/prod.txt"
} >"$out/$side.cover.txt"
echo "cover: $side -> $out/$side.cover.txt ($(sed -n 2p "$out/$side.cover.txt"))" >&2
