#!/usr/bin/env bash
# perf/profile.sh — CPU and allocation profiles of the served path, as
# committed text: the evidence a performance change argues from, taken
# with a command anyone can re-run.
#
#   bash perf/profile.sh [-m MIX] [-s SEED] [-d DUR] [-p REV] -a PR
#
# Builds cmd/loadgen and runs
#   loadgen -selfserve -rows 131072 -concurrency 8 -mix MIX -seed SEED
#           -duration DUR -cpuprofile … -memprofile …
# (defaults: MIX sum=75,group=25, SEED 1, DUR 10s), which fails on any
# request error or served-vs-direct mismatch. Then writes, under
# perf/profiles/PR/,
#   SIDE.cpu.txt          go tool pprof -top -nodecount=25 of the CPU profile
#   SIDE.alloc_space.txt  the same over the allocation profile's alloc_space
# where SIDE is "change" for the working tree this script is started from
# and "parent" with -p REV, which profiles commit REV instead: REV is
# extracted with `git archive` into a temporary directory and built with
# this tree's cmd/loadgen, so an engine that predates the profile flags
# runs under the same load generator. The allocation profile counts
# from process start, fixture load included.
set -euo pipefail

mix=sum=75,group=25 seed=1 dur=10s rev= pr=
while getopts "m:s:d:p:a:" opt; do
	case $opt in
	m) mix=$OPTARG ;;
	s) seed=$OPTARG ;;
	d) dur=$OPTARG ;;
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
src=$tree side=change
if [ -n "$rev" ]; then
	src=$work/src side=parent
	mkdir -p "$src"
	git archive "$rev" | tar -x -C "$src"
	cp cmd/loadgen/main.go "$src/cmd/loadgen/main.go"
fi
go -C "$src" build -o "$work/loadgen" ./cmd/loadgen

(cd "$work" && ./loadgen -selfserve -rows 131072 -concurrency 8 -mix "$mix" -seed "$seed" -duration "$dur" \
	-cpuprofile cpu.prof -memprofile mem.prof >run.txt) || { cat "$work/run.txt" >&2; exit 1; }

out=perf/profiles/$pr
mkdir -p "$out"
go tool pprof -top -nodecount=25 "$work/loadgen" "$work/cpu.prof" >"$out/$side.cpu.txt" 2>/dev/null
go tool pprof -top -nodecount=25 -sample_index=alloc_space "$work/loadgen" "$work/mem.prof" >"$out/$side.alloc_space.txt" 2>/dev/null
echo "profile: $side ($mix, seed $seed, $dur) -> $out/$side.{cpu,alloc_space}.txt" >&2
