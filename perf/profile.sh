#!/usr/bin/env bash
# perf/profile.sh — CPU and allocation profiles of the served path, as
# committed text: the evidence a performance change argues from, taken
# with a command anyone can re-run.
#
#   bash perf/profile.sh [-w | -u] [-m MIX] [-s SEED] [-d DUR] [-p REV] -a PR
#
# Builds cmd/loadgen and runs
#   loadgen -selfserve -rows 131072 -concurrency 8 -mix MIX -seed SEED
#           -duration DUR -cpuprofile … -memprofile … -mutexprofile …
# (defaults: MIX sum=75,group=25, SEED 1, DUR 10s), which fails on any
# request error or served-vs-direct mismatch. -w profiles the durable
# path instead: it adds -wal with a fresh directory — the item table
# logs every write under the default grouped fsync, and the merge tick
# also checkpoints once a second — and MIX defaults to write=80,point=20.
# -u profiles the scan: it adds -unique, so every sum and group-by draws
# a practically unique range (the benchmark's scan-unique shape) and the
# result cache answers few of them; MIX keeps its default.
# Then writes, under
# perf/profiles/PR/,
#   SIDE.cpu.txt          go tool pprof -top -nodecount=25 of the CPU profile
#   SIDE.alloc_space.txt  the same over the allocation profile's alloc_space
#   SIDE.cpu_server.txt   SIDE.cpu.txt cut to the server's goroutines
#                         (-tagfocus side=server, the label Server.Serve
#                         puts on each connection goroutine)
#   SIDE.alloc_server.txt SIDE.alloc_space.txt cut to the stacks under the
#                         server's connection loop (-focus serveConn): an
#                         allocation profile carries no goroutine labels,
#                         so the cut is by frame, not by tag
#   SIDE.mutex.txt        go tool pprof -top -nodecount=25 of the mutex
#                         profile: time waiters spent on contended locks,
#                         charged to the frame that released the lock
# where SIDE is "change" for the working tree this script is started from
# and "parent" with -p REV, which profiles commit REV instead: REV is
# extracted with `git archive` into a temporary directory and built with
# this tree's cmd/loadgen and its client package (internal/server/loadgen),
# so an engine that predates the profile flags runs under the same load
# generator. The allocation profile counts
# from process start, fixture load included.
set -euo pipefail

mix= seed=1 dur=10s rev= pr= wal=() unique=()
while getopts "wum:s:d:p:a:" opt; do
	case $opt in
	w) wal=(-wal wal) ;;
	u) unique=(-unique) ;;
	m) mix=$OPTARG ;;
	s) seed=$OPTARG ;;
	d) dur=$OPTARG ;;
	p) rev=$OPTARG ;;
	a) pr=$OPTARG ;;
	*) sed -n '2,6p' "$0" >&2; exit 2 ;;
	esac
done
if [ -z "$mix" ]; then
	mix=sum=75,group=25
	[ ${#wal[@]} -eq 0 ] || mix=write=80,point=20
fi
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
	cp internal/server/loadgen/loadgen.go "$src/internal/server/loadgen/loadgen.go"
fi
go -C "$src" build -o "$work/loadgen" ./cmd/loadgen

(cd "$work" && ./loadgen -selfserve -rows 131072 -concurrency 8 -mix "$mix" -seed "$seed" -duration "$dur" \
	${wal[@]+"${wal[@]}"} ${unique[@]+"${unique[@]}"} -cpuprofile cpu.prof -memprofile mem.prof -mutexprofile mutex.prof >run.txt) || { cat "$work/run.txt" >&2; exit 1; }

out=perf/profiles/$pr
mkdir -p "$out"
go tool pprof -top -nodecount=25 "$work/loadgen" "$work/cpu.prof" >"$out/$side.cpu.txt" 2>/dev/null
go tool pprof -top -nodecount=25 -sample_index=alloc_space "$work/loadgen" "$work/mem.prof" >"$out/$side.alloc_space.txt" 2>/dev/null
go tool pprof -top -nodecount=25 -tagfocus=side=server "$work/loadgen" "$work/cpu.prof" >"$out/$side.cpu_server.txt" 2>/dev/null
go tool pprof -top -nodecount=25 -sample_index=alloc_space -focus='server\.\(\*Server\)\.serveConn' "$work/loadgen" "$work/mem.prof" >"$out/$side.alloc_server.txt" 2>/dev/null
go tool pprof -top -nodecount=25 "$work/loadgen" "$work/mutex.prof" >"$out/$side.mutex.txt" 2>/dev/null
echo "profile: $side ($mix${wal[@]+, -wal}${unique[@]+, -unique}, seed $seed, $dur) -> $out/$side.{cpu,alloc_space,cpu_server,alloc_server,mutex}.txt" >&2
