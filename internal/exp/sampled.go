package exp

import (
	"math"

	"tridentsp/internal/checkpoint"
	"tridentsp/internal/core"
	"tridentsp/internal/sampling"
	"tridentsp/internal/workloads"
)

// Sampled-mode experiment support (DESIGN §14). With Options.Sampled set,
// every figure run executes under the interval-sampling controller and its
// cells are computed from the extrapolated Results; exact mode is the
// default and its output is untouched. The SampleVal experiment is the
// validation figure: every workload exact vs sampled, side by side, with
// the relative error and the estimator's own confidence interval.

// SampleConfig returns the sampling schedule used for a given instruction
// budget. The startup prefix is sized to the workloads' optimizer
// convergence (all fourteen kernels reach steady state within ~1.2M
// instructions; sampling a still-maturing optimizer underestimates every
// downstream metric). The window geometry was tuned against the exact
// runs of all fourteen kernels: several (vis most of all) oscillate with
// a period under 1M instructions, so a sparse grid aliases against them —
// the interval floor sits at 300k (250k aliases against dot's burst
// period; 500k against vis's); windows of half an interval at the floor
// keep fresh-warm bias small (a window much shorter than its warm-up's
// reach over-represents the just-trained stream buffers, which shows up
// as inflated mgrid coverage); and warm-up thinner than ~a third of the
// window leaves its head running on cold structures, biasing art's IPC
// down. Longer budgets keep the window and warm-up sizes and stretch the
// interval, fast-forwarding proportionally more instead of sampling
// more.
func SampleConfig(instrs uint64) sampling.Config {
	cfg := sampling.Config{
		Interval:   instrs / 50,
		Detailed:   150_000,
		Warmup:     50_000,
		PhaseDelta: 0.5,
		Startup:    1_500_000,
	}
	if cfg.Interval < 300_000 {
		cfg.Interval = 300_000
	}
	if cfg.Startup > instrs/2 {
		cfg.Startup = instrs / 2
	}
	// Small budgets: shrink the window so the schedule still alternates.
	if cfg.Detailed+cfg.Warmup > cfg.Interval {
		cfg.Detailed = cfg.Interval / 10
		cfg.Warmup = cfg.Detailed / 2
	}
	return cfg
}

// sampledRun executes one benchmark under the sampling scheduler, fanning
// window chains across o.SampleJobs workers. A scheduler failure surfaces
// as a panic so the pool's fault boundary records it like any other failed
// run. The pool's stop channel reaches the scheduler, so a blown attempt
// deadline winds the nested window workers down at the next boundary; with
// a memo, every commit point snapshots the scheduler and a retry resumes
// the window schedule where the failed attempt left off (the resumed
// estimate is byte-identical to an unbroken run's — the scheduler's
// resume-determinism contract).
func sampledRun(bm workloads.Benchmark, cfg core.Config, o Options, stop <-chan struct{}, m *memo) sampling.Estimate {
	o.applyEngine(&cfg)
	build := func() *core.System { return core.NewSystem(cfg, bm.Build(o.Scale)) }
	var sched *sampling.Scheduler
	opts := sampling.Options{Jobs: o.SampleJobs, NewSystem: build, Stop: stop}
	if m != nil {
		opts.OnCommit = func(uint64) {
			e := checkpoint.NewEncoder()
			if err := sched.SaveState(e); err == nil {
				m.store(e.Bytes())
			}
		}
	}
	sched, err := sampling.NewScheduler(build(), SampleConfig(o.Instrs), nil, opts)
	if err != nil {
		panic(err)
	}
	if snap := m.load(); snap != nil {
		if err := sched.LoadState(checkpoint.NewDecoder(snap)); err != nil {
			panic(err)
		}
	}
	est := sched.Run(o.Instrs)
	if err := sched.Err(); err != nil {
		panic(err)
	}
	return est
}

// SampleVal is the sampled-vs-exact validation figure: each workload runs
// to the same budget in both modes under the self-repairing default
// machine, and the table reports IPC, prefetch miss coverage, and prefetch
// accuracy with their relative errors plus the estimator's reported 95%
// confidence half-width for IPC.
func SampleVal(o Options) Table {
	o = o.withDefaults()
	t := Table{
		ID:    "sampleval",
		Title: "Sampled-vs-exact validation (interval sampling, DESIGN §14)",
		Columns: []string{"IPC exact", "IPC sampled", "ipc err%",
			"cov exact", "cov sampled", "cov err%",
			"acc exact", "acc sampled", "acc err%", "ipc CI%"},
		Note: "err% is |sampled-exact|/exact; CI% is the estimator's own 95% half-width",
	}
	p := newPool(o)
	suite := o.suite()
	type futs struct {
		exact   *task[core.Results]
		sampled *task[sampling.Estimate]
	}
	runs := make([]futs, len(suite))
	for i, bm := range suite {
		bm := bm
		cfg := core.DefaultConfig()
		runs[i] = futs{
			exact: p.submitRun(bm, variant{cfg: cfg}, o),
			sampled: submitStop(p, bm.Name+" sampled", func(stop <-chan struct{}, m *memo) sampling.Estimate {
				return sampledRun(bm, cfg, o, stop, m)
			}),
		}
	}
	for i, bm := range suite {
		exactOK, sampledOK := runs[i].exact.ok(), runs[i].sampled.ok()
		if !exactOK || !sampledOK {
			t.Rows = append(t.Rows, Row{Label: bm.Name, Cells: nanCells(len(t.Columns))})
			continue
		}
		exact := runs[i].exact.wait()
		est := runs[i].sampled.wait()
		s := est.Sampled
		t.Rows = append(t.Rows, Row{Label: bm.Name, Cells: []float64{
			exact.IPC(), s.IPC(), 100 * relErr(s.IPC(), exact.IPC()),
			exact.PrefetchMissCoverage(), s.PrefetchMissCoverage(),
			100 * relErr(s.PrefetchMissCoverage(), exact.PrefetchMissCoverage()),
			sampling.PrefetchAccuracy(exact), sampling.PrefetchAccuracy(s),
			100 * relErr(sampling.PrefetchAccuracy(s), sampling.PrefetchAccuracy(exact)),
			100 * est.Err["ipc"],
		}})
	}
	meanRow(&t)
	t.Failures = p.manifest()
	return t
}

// relErr is the relative error of got against want (absolute when want is
// zero, so a both-zero metric reads as exact agreement).
func relErr(got, want float64) float64 {
	if want == 0 {
		return math.Abs(got - want)
	}
	return math.Abs(got-want) / math.Abs(want)
}
