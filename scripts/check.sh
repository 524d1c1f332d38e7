#!/bin/sh
# Full local gate: compile everything, vet, and run the whole test suite
# under the race detector. The simulator is single-goroutine by design but
# the experiment harness fans runs across goroutines, so -race guards both
# the chaos harness/shadow runs and the worker pool against hidden sharing.
#
# For performance work, scripts/bench.sh emits a BENCH_<date>.json snapshot
# of the per-figure benchmarks. Snapshot naming: BENCH_baseline.json is the
# seed, BENCH_after.json the first perf PR, BENCH_prN.json each later perf
# PR; compare any two with cmd/benchdiff.
set -eux

cd "$(dirname "$0")/.."

go build ./...
# Formatting gate over both modules (listed explicitly so the benchmark's
# build cache under .bench_build/ is never walked).
unformatted=$(gofmt -l ./*.go cmd examples internal perfbench)
if [ -n "$unformatted" ]; then
	echo "gofmt -l: needs formatting:" $unformatted
	exit 1
fi
go vet ./...
# The examples build their programs and data by hand through the public
# program API; run each one so a change to that API cannot leave them broken.
for ex in examples/*/; do
	go run "./$ex" > /dev/null
done
# perfbench is a separate module built against this one's API, which the
# root build skips; vet compiles it without writing a binary into the tree,
# and its self-tests (metric math, digest oracle perturbation, every-workload
# smoke run at test scale) keep the benchmark honest against API changes.
(cd perfbench && go vet ./... && go test ./...)
# The no-shared-state rule the parallel harness relies on, checked first for
# fast failure, then the full suite.
go test -race -run TestConcurrentSystemsShareNothing ./internal/core/
go test -race ./...
# JIT tier legs. The differential suite under -race with the JIT engaged:
# the fuzz oracle runs slow vs batch vs JIT (threshold 0 — compiled chains
# resident everywhere, including across a mid-run PatchImm), and the fast-path
# and sentinel suites cover promotion, quarantine, and restore at the stock
# threshold. Then a compile-everything smoke at the binary boundary: a
# -jit-threshold=0 run must finish clean and report byte-identically to the
# reference loop.
go test -race -run 'TestFastPath|TestSentinel|FuzzFastPathDifferential' ./internal/core/
go test -race -run 'TestEngineReportIdentity|TestKillResumeDeterminism' ./cmd/tridentsim/
go run ./cmd/tridentsim -bench swim,mcf,art -scale small -instrs 400000 -jit-threshold 0 > /tmp/jit0.out
go run ./cmd/tridentsim -bench swim,mcf,art -scale small -instrs 400000 -slowpath | diff /tmp/jit0.out -
# Cross-engine resume at the binary boundary: the engine knobs are outside
# the checkpoint identity (DESIGN §12.1), so a checkpoint cut on the default
# engine resumes under -slowpath — here also extending the budget, which the
# identity leaves out too — and prints the uninterrupted run's report.
enginedir=$(mktemp -d)
go run ./cmd/tridentsim -bench mcf -scale small -instrs 400000 > "$enginedir/ref.out"
go run ./cmd/tridentsim -bench mcf -scale small -instrs 200000 \
	-checkpoint-every 100000 -checkpoint-dir "$enginedir" > /dev/null
go run ./cmd/tridentsim -bench mcf -scale small -instrs 400000 -slowpath \
	-restore "$enginedir/mcf.ckpt" | diff "$enginedir/ref.out" -
rm -rf "$enginedir"
# Golden conformance, twice in one process: -count=2 re-runs every workload
# against the checked-in event streams, and every experiment table (plus
# the per-benchmark figures' failure manifests) against tables.txt, so a
# run that mutates shared state (and would only diverge on the second pass)
# still fails.
go test -run Golden -count=2 ./internal/exp/
# Coverage floor for the telemetry spine: the tracer is the repo's
# conformance oracle, so its own package stays thoroughly tested.
go test -coverprofile=/tmp/telemetry.cover ./internal/telemetry/
go tool cover -func=/tmp/telemetry.cover | awk '
	/^total:/ {
		pct = $3 + 0
		printf "internal/telemetry coverage: %.1f%% (floor 70%%)\n", pct
		if (pct < 70) exit 1
	}'
# Checkpoint torture: truncation at every byte boundary, bit flips at every
# position, and kill-mid-write must all fail loudly, never load garbage. The
# golden digests pin the machine and scheduler checkpoint bytes across a
# configuration matrix, and the flip sweep requires a machine restored from
# a one-byte-corrupted blob either to refuse it or to keep running.
go test -run 'TestFileTorture|TestFileKillMidWrite|TestGoldenCheckpointBytes|TestGoldenSchedulerCheckpointBytes|TestRestoreFlipSweep' \
	-count=2 ./internal/checkpoint/ ./internal/core/ ./internal/sampling/
# Parallel window scheduler race leg (DESIGN §15): the producer/worker/
# reconciler pipeline and the singleflight ROI cache are the repo's only
# intentionally concurrent simulator internals, so their byte-identity and
# resume tests run under -race explicitly (fast failure; go test -race ./...
# above covers them again in the full sweep), with the run-slot bound and
# the timing independence of the launched set and its waste.
go test -race -run 'TestParallelMatchesSerial|TestSampledResumeDeterminism|TestROILoadOrBuildSingleflight|TestRunningChainsBoundedByJobs|TestSpeculationRepeatable' ./internal/sampling/
# Chains recycle worker machines (DESIGN §15): a machine that ran one slot's
# window, re-seeded, must match a fresh one exactly, and re-seeding it must
# stay cheap. The chain's warm-up runs the functional executor, whose
# lockstep oracle against Step rides along.
go test -race -run 'TestRecycledMachineMatchesFresh|TestRestoreIntoUsedMachineBytes' ./internal/core/
go test -race -run 'TestExecFunctional' ./internal/cpu/
# Sampled-mode smoke (DESIGN §14, §15): one workload under interval sampling
# with an ROI cache, checkpointed; then the same schedule fanned across 8
# window workers, and finally a resume from the serial run's checkpoint at
# jobs=8 (-sample-jobs is excluded from checkpoint identity). All three
# reports must be byte-identical — cache and speculation logistics go to
# stderr precisely so these diffs hold.
smokedir=$(mktemp -d)
go run ./cmd/tridentsim -bench mcf -scale small -instrs 2000000 -sample \
	-sample-interval 500000 -sample-startup 500000 -roi-cache "$smokedir/roi" \
	-checkpoint-every 400000 -checkpoint-dir "$smokedir/ckpt" > "$smokedir/sampled.out"
go run ./cmd/tridentsim -bench mcf -scale small -instrs 2000000 -sample \
	-sample-interval 500000 -sample-startup 500000 -roi-cache "$smokedir/roi" \
	-sample-jobs 8 | diff "$smokedir/sampled.out" -
go run ./cmd/tridentsim -bench mcf -scale small -instrs 2000000 -sample \
	-sample-interval 500000 -sample-startup 500000 -roi-cache "$smokedir/roi" \
	-sample-jobs 8 -restore "$smokedir/ckpt/mcf.ckpt" | diff "$smokedir/sampled.out" -
rm -rf "$smokedir"
# One-iteration bench smoke: keeps the benchmark path compiling and running.
go test -run '^$' -bench BenchmarkFigure5 -benchtime 1x .
# benchdiff gate over the two newest checked-in snapshots (benchdiff's
# auto-pick: version sort orders BENCH_pr9 < BENCH_pr10, baseline/after
# predate the prN series, and BENCH_*_sampled.json snapshots are excluded):
# exercises the comparison tool and asserts the committed perf trajectory
# has no >5% ns/op regression step, without editing this script per PR.
go run ./cmd/benchdiff -threshold 0.05
# Durability must be free when off: the sentinel gate and checkpoint hooks
# sit on the hot simulation loop, so PR6 holds the figure benches within 1%
# of the pre-durability snapshot.
go run ./cmd/benchdiff -threshold 0.01 BENCH_pr5.json BENCH_pr6.json
# The JIT tier's perf contract (PR7): no figure bench regresses past the 1%
# gate versus the pre-JIT snapshot, and the machine-readable output carries
# the same verdict the table mode gates on.
go run ./cmd/benchdiff -threshold 0.01 -json BENCH_pr6.json BENCH_pr7.json | grep '"regressed": false'
# Sampled-family gate: -sampled flips auto-pick to BENCH_*_sampled.json so
# the sampled benches track their own history. The two newest sampled
# snapshots both carry BenchmarkSampled100x/jobs={1,2,8}, so every jobs=N
# sub-benchmark is a matched pair and a >10% ns/op step fails the gate.
go run ./cmd/benchdiff -sampled -threshold 0.10
# Prefetch arsenal legs (DESIGN §16): the conformance suite and the selector
# determinism oracle under -race (the selector sits on the memsys hot path
# the parallel harnesses all share), then fast-vs-slowpath byte-identity
# smokes at the binary boundary for both a static arsenal backend and the
# online selector — the contract that epoch switch points derive from the
# committed load stream, not the execution engine.
go test -race ./internal/hwpref/
go test -race -run 'FuzzSelectorDeterminism|TestRestoreRejectsMismatchedArsenal|TestArsenalFlagValidation' \
	./internal/core/ ./cmd/tridentsim/
go run ./cmd/tridentsim -bench swim,mcf,art -scale small -instrs 400000 -hw stride > /tmp/hwstride.out
go run ./cmd/tridentsim -bench swim,mcf,art -scale small -instrs 400000 -hw stride -slowpath | diff /tmp/hwstride.out -
go run ./cmd/tridentsim -bench swim,mcf,art -scale small -instrs 400000 -hw selector > /tmp/hwsel.out
go run ./cmd/tridentsim -bench swim,mcf,art -scale small -instrs 400000 -hw selector -slowpath | diff /tmp/hwsel.out -
