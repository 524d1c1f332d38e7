package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"tridentsp/internal/core"
	"tridentsp/internal/sampling"
	"tridentsp/internal/telemetry"
	"tridentsp/internal/workloads"
)

// workloadSpec is one benchmark workload: a kernel set on one machine, run
// exact or sampled, with the menu of instruction budgets a seed draws from.
// Every menu entry has a recorded digest (oracle.go).
type workloadSpec struct {
	name    string
	kernels []string
	hw      core.HWPrefetch
	sampled bool
	jobs    int // concurrent window chains (sampled only)
	smp     sampling.Config
	budgets []uint64
}

// config is the workload's machine: the paper's default (8x8 stream buffers
// plus self-repairing Trident) with the workload's hardware prefetcher.
func (ws workloadSpec) config() core.Config {
	c := core.DefaultConfig()
	c.HW = ws.hw
	return c
}

// specs are the benchmark's workloads. Why each was chosen is recorded in
// BENCHMARK.json and README.md.
var specs = []workloadSpec{
	{
		name:    "exact-fp",
		kernels: []string{"applu", "art", "equake", "facerec", "fma3d", "galgel", "mgrid", "swim", "wupwise"},
		hw:      core.HW8x8,
		budgets: []uint64{2_000_000, 4_000_000, 6_000_000},
	},
	{
		name:    "exact-pointer",
		kernels: []string{"dot", "gap", "mcf", "parser", "vis"},
		hw:      core.HWSelector,
		budgets: []uint64{2_000_000, 4_000_000, 6_000_000},
	},
	{
		name:    "sampled-default",
		kernels: []string{"mcf", "vis"},
		hw:      core.HW8x8,
		sampled: true,
		jobs:    2,
		smp:     sampling.DefaultConfig(),
		budgets: []uint64{8_000_000, 16_000_000, 24_000_000},
	},
}

func specByName(name string) (workloadSpec, bool) {
	for _, ws := range specs {
		if ws.name == name {
			return ws, true
		}
	}
	return workloadSpec{}, false
}

// bench is one configured benchmark process: a workload, its kernels at a
// scale, the oracle, and the optional span tracer.
type bench struct {
	ws      workloadSpec
	scale   workloads.Scale
	kernels []workloads.Benchmark
	oracle  oracle
	tr      *tracer
	probes  probeSizes
	// buildTimes holds set-up's first Build of each kernel.
	buildTimes []time.Duration
}

func newBench(ws workloadSpec, scale workloads.Scale, o oracle) (*bench, error) {
	b := &bench{ws: ws, scale: scale, oracle: o, probes: defaultProbes}
	for _, name := range ws.kernels {
		bm, ok := workloads.ByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown kernel %q", name)
		}
		b.kernels = append(b.kernels, bm)
	}
	return b, nil
}

// runOutcome is one simulation run: what it cost on the host and what the
// simulated machine did.
type runOutcome struct {
	kernel string
	budget uint64
	instrs uint64 // program instructions covered (detailed + fast-forwarded)
	// Host time of the run (Build + NewSystem + run), NewSystem's part, and
	// the run's part; process CPU time over the whole run.
	wall, newSys, sim, cpu time.Duration
	// ref is wall at reference host speed (calib.go), set by measure.
	ref time.Duration
	err error

	res   core.Results // exact Results, or the sampled run's raw Results
	tiers [3]uint64    // slow, batch, JIT instructions
	est   *sampling.Estimate
	sys   *core.System // the master machine, for traced-run probes
}

// runOne simulates one (kernel, budget) closed-loop request and checks it
// against the oracle. A panic, an abort, an apply error, a scheduler error,
// or a digest mismatch is reported as the outcome's err.
func (b *bench) runOne(bm workloads.Benchmark, budget uint64, tel bool) (out runOutcome) {
	out.kernel, out.budget = bm.Name, budget
	defer func() {
		if r := recover(); r != nil {
			out.err = fmt.Errorf("%s/%d: panic: %v", bm.Name, budget, r)
		}
	}()
	cfg := b.ws.config()
	if tel {
		cfg.Telemetry = &telemetry.Options{}
	}
	c0 := cpuTime()
	defer func() { out.cpu = cpuTime() - c0 }()
	t0 := time.Now()
	id := b.tr.begin("workloads.Build")
	prog := bm.Build(b.scale)
	b.tr.end(id)
	t1 := time.Now()
	id = b.tr.begin("core.NewSystem")
	sys := core.NewSystem(cfg, prog)
	b.tr.end(id)
	t2 := time.Now()
	out.sys = sys
	key := digestKey(b.ws.name, bm.Name, budget)
	if !b.ws.sampled {
		id = b.tr.begin("core.System.Run")
		res := sys.Run(budget)
		b.tr.end(id)
		t3 := time.Now()
		out.newSys, out.sim, out.wall = t2.Sub(t1), t3.Sub(t2), t3.Sub(t0)
		out.res, out.instrs = res, res.OrigInstrs
		out.tiers[0], out.tiers[1], out.tiers[2] = sys.TierInstrs()
		id = b.tr.begin("bench.check")
		out.err = b.checkExact(key, res)
		b.tr.end(id)
		return out
	}
	id = b.tr.begin("sampling.NewScheduler")
	schd, err := sampling.NewScheduler(sys, b.ws.smp, nil, sampling.Options{
		Jobs:      b.ws.jobs,
		NewSystem: func() *core.System { return core.NewSystem(cfg, bm.Build(b.scale)) },
	})
	b.tr.end(id)
	if err != nil {
		out.err = fmt.Errorf("%s: %w", key, err)
		return out
	}
	id = b.tr.begin("sampling.Scheduler.Run")
	est := schd.Run(budget)
	b.tr.end(id)
	t3 := time.Now()
	out.newSys, out.sim, out.wall = t2.Sub(t1), t3.Sub(t2), t3.Sub(t0)
	out.res, out.instrs, out.est = est.Raw, est.Total, &est
	for _, iv := range schd.Intervals() {
		out.tiers[0] += iv.TierSlow
		out.tiers[1] += iv.TierBatch
		out.tiers[2] += iv.TierJIT
	}
	id = b.tr.begin("bench.check")
	if err := schd.Err(); err != nil {
		out.err = fmt.Errorf("%s: %w", key, err)
	} else {
		out.err = b.checkSampled(key, est)
	}
	b.tr.end(id)
	return out
}

func (b *bench) checkExact(key string, r core.Results) error {
	if r.Aborted != "" {
		return fmt.Errorf("%s: aborted: %s", key, r.Aborted)
	}
	if r.ApplyErrors > 0 {
		return fmt.Errorf("%s: %d apply errors", key, r.ApplyErrors)
	}
	return b.oracle.check(key, resultsDigest(r))
}

func (b *bench) checkSampled(key string, est sampling.Estimate) error {
	if est.Raw.Aborted != "" {
		return fmt.Errorf("%s: aborted: %s", key, est.Raw.Aborted)
	}
	if est.Raw.ApplyErrors > 0 {
		return fmt.Errorf("%s: %d apply errors", key, est.Raw.ApplyErrors)
	}
	return b.oracle.check(key, estimateDigest(est))
}

// runSampled is one sampled run outside the timed loop (oracle recording).
func runSampled(bm workloads.Benchmark, cfg core.Config, smp sampling.Config,
	scale workloads.Scale, jobs int, budget uint64) (sampling.Estimate, error) {
	sys := core.NewSystem(cfg, bm.Build(scale))
	schd, err := sampling.NewScheduler(sys, smp, nil, sampling.Options{
		Jobs:      jobs,
		NewSystem: func() *core.System { return core.NewSystem(cfg, bm.Build(scale)) },
	})
	if err != nil {
		return sampling.Estimate{}, err
	}
	est := schd.Run(budget)
	return est, schd.Err()
}

// tally accumulates a stream of run outcomes.
type tally struct {
	nsPerInstr []float64 // per run, at reference host speed
	blockP50   []float64 // median ns per instruction of each block
	blockRSS   []float64 // peak resident MiB of each block
	instrs     uint64
	wall       time.Duration // summed run wall time, as measured
	probes     []float64     // host-speed probe times, ms
	attempted  int
	failed     int
	errs       []string
	ipcErrPct  float64 // worst sampled-vs-exact IPC error seen
	outs       []runOutcome
	keepOuts   bool
	// cells holds each (kernel, budget) cell's run times at reference host
	// speed; the instruction count of a cell is fixed by the oracle.
	cells      map[string][]time.Duration
	cellInstrs map[string]uint64
}

func (t *tally) add(b *bench, out runOutcome) {
	t.attempted++
	if out.err != nil {
		t.failed++
		if len(t.errs) < 5 {
			t.errs = append(t.errs, out.err.Error())
		}
		return
	}
	t.instrs += out.instrs
	t.wall += out.wall
	t.nsPerInstr = append(t.nsPerInstr, float64(out.ref.Nanoseconds())/float64(out.instrs))
	key := digestKey(b.ws.name, out.kernel, out.budget)
	if t.cells == nil {
		t.cells, t.cellInstrs = map[string][]time.Duration{}, map[string]uint64{}
	}
	t.cells[key] = append(t.cells[key], out.ref)
	t.cellInstrs[key] = out.instrs
	if out.est != nil {
		if ref := b.oracle[key].RefIPC; ref > 0 {
			t.ipcErrPct = max(t.ipcErrPct, 100*math.Abs(out.est.Sampled.IPC()-ref)/ref)
		}
	}
	if t.keepOuts {
		out.sys = nil // machines are large; probes use their own
		t.outs = append(t.outs, out)
	}
}

// throughput is program instructions per host second over one run of every
// (kernel, budget) cell, each cell timed at the median of its runs, so a
// burst of host contention moves it only if it hits most runs of a cell.
func (t *tally) throughput() float64 {
	var instrs uint64
	var secs float64
	for key, walls := range t.cells {
		ws := make([]float64, len(walls))
		for i, w := range walls {
			ws[i] = w.Seconds()
		}
		instrs += t.cellInstrs[key]
		secs += median(ws)
	}
	return ratio(float64(instrs), secs)
}

// cellGeomean is the geometric mean, over the (kernel, budget) cells, of
// each cell's median ns per instruction: every kernel weighs the same, and
// no single cell decides it, as one would for a median over runs that mixes
// kernels of very different speeds.
func (t *tally) cellGeomean() float64 {
	var per []float64
	for key, refs := range t.cells {
		ns := make([]float64, len(refs))
		for i, d := range refs {
			ns[i] = float64(d.Nanoseconds())
		}
		per = append(per, median(ns)/float64(t.cellInstrs[key]))
	}
	return geomean(per)
}

// setup builds every kernel's program (the first Build of a kernel
// generates it; later ones clone the cached master) and runs one untimed
// warm-up pass at the smallest budget, which fills the process-wide JIT
// compile cache. Warm-up runs are checked like any other. It returns the
// set-up time at reference host speed: the sum of its steps, each rescaled
// by the host-speed probes around it (the probes themselves are not timed).
func (b *bench) setup(t *tally) time.Duration {
	rc := newRefClock()
	var total time.Duration
	for _, bm := range b.kernels {
		id := b.tr.begin("workloads.Build")
		t1 := time.Now()
		bm.Build(b.scale)
		d := time.Since(t1)
		b.tr.end(id)
		b.buildTimes = append(b.buildTimes, d)
		total += rc.after(d)
	}
	for _, bm := range b.kernels {
		b.tr.newRun()
		t1 := time.Now()
		out := b.runOne(bm, b.ws.budgetsSorted()[0], false)
		total += rc.after(time.Since(t1))
		if out.err != nil {
			t.attempted++
			t.failed++
			t.errs = append(t.errs, "warm-up: "+out.err.Error())
		}
	}
	return total
}

// measure runs closed-loop blocks until d has elapsed (at least one whole
// block), or, when maxRuns is positive, exactly maxRuns runs. A block is
// one pass per menu budget; each pass visits every kernel once, in an
// order the seeded rng permutes, and across a block every kernel runs once
// at every budget, in an order the rng draws. Every block thus holds the
// same runs, and seeds differ only in order. It returns the runs made.
func (b *bench) measure(rng *rand.Rand, d time.Duration, maxRuns int, t *tally) int {
	start := time.Now()
	rc := newRefClock()
	defer func() { t.probes = append(t.probes, rc.probes...) }()
	runs := 0
	more := func() bool {
		if maxRuns > 0 {
			return runs < maxRuns
		}
		return runs == 0 || time.Since(start) < d
	}
	nb := len(b.ws.budgets)
	for more() {
		blockStart := len(t.nsPerInstr)
		resetPeakRSS()
		draws := make([][]int, len(b.kernels))
		for k := range draws {
			draws[k] = rng.Perm(nb)
		}
		for pass := 0; pass < nb; pass++ {
			for _, i := range rng.Perm(len(b.kernels)) {
				if maxRuns > 0 && runs >= maxRuns {
					return runs
				}
				b.tr.newRun()
				out := b.runOne(b.kernels[i], b.ws.budgets[draws[i][pass]], false)
				out.ref = rc.after(out.wall)
				t.add(b, out)
				runs++
			}
		}
		t.blockP50 = append(t.blockP50, median(t.nsPerInstr[blockStart:]))
		t.blockRSS = append(t.blockRSS, peakRSSMB())
	}
	return runs
}

// budgetsSorted returns the workload's menu ascending.
func (ws workloadSpec) budgetsSorted() []uint64 {
	bs := append([]uint64(nil), ws.budgets...)
	sort.Slice(bs, func(i, j int) bool { return bs[i] < bs[j] })
	return bs
}
