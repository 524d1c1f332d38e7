#!/bin/sh
# Reachability audit: which code do the figures and the CLIs reach?
#
# Builds experiments, tridentsim, tracestats and tracedump with coverage
# instrumentation over every package of the module, then runs the
# quick-scale figures on all 14 benchmarks, a fixed tridentsim matrix that
# touches every tridentsim flag, and one tracestats and one tracedump call.
# It prints the functions no run reached, then each package's unreached
# statements and their share, with totals for internal/ and for the whole
# module.
#
# Everything it builds and writes lives in a temporary directory that is
# removed on exit; the tree is not touched. It is an audit, not a gate:
# its numbers inform keep-or-delete decisions (ROADMAP item 9). A run
# takes a few minutes on two CPUs.
#
#   scripts/reach.sh
set -eu

cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
bin=$tmp/bin
run=$tmp/run
mkdir -p "$bin" "$run" "$tmp/cov"

for cmd in experiments tridentsim tracestats tracedump; do
	go build -cover -coverpkg=tridentsp/... -o "$bin/$cmd" "./cmd/$cmd"
done
GOCOVERDIR=$tmp/cov
export GOCOVERDIR

all=applu,art,dot,equake,facerec,fma3d,galgel,gap,mcf,mgrid,parser,swim,vis,wupwise
"$bin/experiments" -quick -bench "$all" > /dev/null
"$bin/experiments" -list > /dev/null
"$bin/experiments" -quick -bench mcf -fig ablations > /dev/null

# One tridentsim run per line; each runs at small scale with the flags
# after the common prefix. Together they set every flag at least once.
sim() {
	"$bin/tridentsim" -scale small -instrs 400000 "$@" > /dev/null
}
sim -bench mcf,swim -j 2 -v
sim -bench art -valspec -hw 4x4 -sw basic -checkpoint-every 200000 -checkpoint-dir "$run/art"
sim -bench vis -hw none -sw whole-object
sim -bench mcf -sw off -trident=true
sim -bench mcf -link=false
sim -bench mcf -hw next-line -hw-degree 2
sim -bench swim -hw stride
sim -bench swim -hw best-offset
sim -bench dot -hw ghb
sim -bench mcf -hw selector -selector-probe 500 -selector-exploit 4 \
	-trace-out "$run/sel.jsonl" -chrome-out "$run/sel.json" \
	-metrics-out "$run/sel.metrics.json" -trace-ring 65536 \
	-checkpoint-every 200000 -checkpoint-dir "$run/sel"
for preset in latency-phase eviction-storm helper-preemption workload-shift monkey; do
	sim -bench mcf -chaos "$preset" -chaos-seed 3
done
sim -bench mcf -sentinel
sim -bench mcf -sentinel-every 100000 -sentinel-window 20000
sim -bench mcf -slowpath
sim -bench mcf -jit=false
sim -bench mcf -jit-threshold 0
sim -bench mcf -instrs 200000 -checkpoint-every 100000 -checkpoint-dir "$run/ckpt"
sim -bench mcf -restore "$run/ckpt/mcf.ckpt"
sim -bench mcf -chaos monkey -checkpoint-every 200000 -checkpoint-dir "$run/chaos"
sim -bench mcf -chaos monkey -restore "$run/chaos/mcf.ckpt"
sim -bench mcf -instrs 2000000 -sample -sample-interval 500000 \
	-sample-detailed 100000 -sample-warmup 50000 -sample-startup 500000 \
	-sample-jobs 2 -roi-cache "$run/roi" \
	-checkpoint-every 1000000 -checkpoint-dir "$run/sampled" \
	-trace-out "$run/sampled.jsonl"
sim -bench mcf -instrs 2000000 -sample -sample-interval 500000 \
	-sample-detailed 100000 -sample-warmup 50000 -sample-startup 500000 \
	-roi-cache "$run/roi" -restore "$run/sampled/mcf.ckpt" \
	-trace-out "$run/sampled.jsonl"

"$bin/tracestats" -metrics "$run/sel.metrics.json" "$run/sel.jsonl" > /dev/null
"$bin/tracedump" -bench mcf -scale small -instrs 400000 > /dev/null

go tool covdata textfmt -i="$tmp/cov" -o "$tmp/profile.txt"

echo "Unreached functions:"
go tool cover -func="$tmp/profile.txt" | awk '$NF == "0.0%" { print "  " $1, $2 }'

# A profile line is file:start,end statements count; a block counts as
# reached if any run reached it.
echo
echo "Unreached statements by package:"
awk 'NR > 1 {
	split($1, loc, ":")
	pkg = loc[1]
	sub(/\/[^\/]*$/, "", pkg)
	sub(/^tridentsp\/?/, "", pkg)
	if (pkg == "") pkg = "."
	block[$1] = pkg
	stmts[$1] = $2
	if ($3 > 0) hit[$1] = 1
}
END {
	for (b in block) {
		p = block[b]
		total[p] += stmts[b]
		if (!(b in hit)) miss[p] += stmts[b]
		if (p ~ /^internal\//) { itotal += stmts[b]; if (!(b in hit)) imiss += stmts[b] }
		alltotal += stmts[b]
		if (!(b in hit)) allmiss += stmts[b]
	}
	for (p in total)
		printf "  %-24s %5d / %5d  %5.1f%%\n", p, miss[p], total[p], 100 * miss[p] / total[p] | "sort"
	close("sort")
	printf "  %-24s %5d / %5d  %5.1f%%\n", "total internal/", imiss, itotal, 100 * imiss / itotal
	printf "  %-24s %5d / %5d  %5.1f%%\n", "total", allmiss, alltotal, 100 * allmiss / alltotal
}' "$tmp/profile.txt"
