package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"syscall"
	"time"

	"tridentsp/internal/core"
	"tridentsp/internal/cpu"
	"tridentsp/internal/dlt"
	"tridentsp/internal/hwpref"
	"tridentsp/internal/memsys"
	"tridentsp/internal/sampling"
	"tridentsp/internal/streambuf"
	"tridentsp/internal/telemetry"
	"tridentsp/internal/trace"
	"tridentsp/internal/workloads"
)

// The traced run: per-layer metrics. Each is either a timed batch of calls
// into one module's public functions or a counter read from the simulator.
// README.md lists which end-to-end metric each should move, and on which
// workload its layer is exercised or idle.

// unexplainedFlag is the ladder's reconciliation threshold: a residual
// above it is reported as a finding.
const unexplainedFlag = 0.15

// probeSizes sets the traced run's probe lengths, in instructions. Load
// streams are captured after skipping the program's start-up so they
// reflect steady-state access patterns.
type probeSizes struct {
	streamSkip   uint64 // fast-forwarded before the load stream is captured
	streamInstrs uint64 // instructions whose loads are captured
	tierWarm     uint64 // untimed prefix before each pinned-tier window
	tierWindow   uint64 // fixed window for each pinned-tier run
	ffwd         uint64 // pure functional fast-forward probe
	rewarm       uint64 // warm fast-forward probe
}

var defaultProbes = probeSizes{
	streamSkip:   1_000_000,
	streamInstrs: 300_000,
	tierWarm:     1_000_000,
	tierWindow:   500_000,
	ffwd:         2_000_000,
	rewarm:       300_000,
}

const (
	optimizeReps = 20  // trace.Optimize repetitions per base trace
	cloneReps    = 5   // ClonePristine repetitions per kernel
	missLatency  = 200 // DLT miss latency fed to UpdateAt, in cycles
)

// load is one captured committed load.
type load struct {
	pc, addr uint64
	now      int64
	l1Miss   bool
}

// tierCost is one kernel's fixed-window cost per instruction under each
// pinned execution tier, in host ns.
type tierCost struct{ slow, batch, jit float64 }

// layerAcc collects per-layer measurements across the workload's kernels.
type layerAcc struct {
	ns    map[string]time.Duration // summed batch time per probe
	calls map[string]float64       // calls (or instructions) per probe
	vals  map[string][]float64     // per-sample values, reported as medians
	count map[string]float64       // summed counters
}

func newLayerAcc() *layerAcc {
	return &layerAcc{ns: map[string]time.Duration{}, calls: map[string]float64{},
		vals: map[string][]float64{}, count: map[string]float64{}}
}

// timed runs fn inside a span named name and charges its duration to the
// probe key with n calls.
func (a *layerAcc) timed(tr *tracer, name, key string, n float64, fn func()) time.Duration {
	id := tr.begin(name)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	tr.end(id)
	a.ns[key] += d
	a.calls[key] += n
	return d
}

func (a *layerAcc) perCall(key string) float64 {
	return ratio(float64(a.ns[key].Nanoseconds()), a.calls[key])
}

// tracedRun runs set-up, an untraced and a traced measurement phase, a
// telemetry-on pass, and the layer probes, then assembles the per-layer
// metrics and writes the span file.
func tracedRun(b *bench, rng *rand.Rand, d time.Duration, host hostInfo, spanPath string) (result, error) {
	tr := newTracer()
	b.tr = tr
	var all tally
	b.setup(&all)
	acc := newLayerAcc()
	for _, bt := range b.buildTimes {
		acc.vals["build"] = append(acc.vals["build"], float64(bt.Nanoseconds())/1e6)
	}

	// Untraced, then traced closed-loop phases over the same seeded run
	// sequence: their throughput difference is the tracing overhead.
	phaseSeed := rng.Int63()
	b.tr = nil
	var plain tally
	runs := b.measure(rand.New(rand.NewSource(phaseSeed)), d*35/100, 0, &plain)
	b.tr = tr
	traced := tally{keepOuts: true}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	b.measure(rand.New(rand.NewSource(phaseSeed)), 0, runs, &traced)
	runtime.ReadMemStats(&ms1)
	for _, t := range []*tally{&plain, &traced} {
		all.attempted += t.attempted
		all.failed += t.failed
		all.errs = append(all.errs, t.errs...)
	}
	if len(traced.outs) == 0 {
		return result{}, fmt.Errorf("every traced run failed: %v", all.errs)
	}

	costs := map[string]tierCost{}
	var telOn, telOff time.Duration
	var telInstrs uint64
	mid := b.ws.budgetsSorted()[len(b.ws.budgets)/2]
	for _, bm := range b.kernels {
		// Telemetry off/on pair at the middle budget: the overhead of
		// enabling telemetry, and its engine counters.
		tr.newRun()
		off := b.runOne(bm, mid, false)
		tr.newRun()
		on := b.runOne(bm, mid, true)
		all.attempted += 2
		failed := false
		for _, o := range []runOutcome{off, on} {
			if o.err != nil {
				all.failed++
				all.errs = append(all.errs, o.err.Error())
				failed = true
			}
		}
		if failed {
			continue
		}
		telOff += off.wall
		telOn += on.wall
		telInstrs += on.res.OrigInstrs
		reg := on.sys.Telemetry().Metrics()
		for _, g := range reg.Gauges() {
			switch g.Name {
			case "jit_compiles", "jit_revalidations", "blockcache_rebuilds", "hwpref_switches":
				acc.count[g.Name] += g.V
			}
		}
		b.optimizeProbe(acc, on.sys)

		tr.newRun()
		costs[bm.Name] = b.tierProbe(acc, bm)
		b.cloneProbe(acc, bm)
		tr.newRun()
		b.streamProbes(acc, bm)
		tr.newRun()
		b.samplingProbes(acc, bm)
	}

	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	outs := traced.outs
	var sum core.Results
	var tiers [3]uint64
	var instrs uint64
	var sim, wall time.Duration
	var windows, waste, startupWins int
	var detailed, total uint64
	var cpuUsed time.Duration
	var nsys []float64
	for _, o := range outs {
		addResults(&sum, o.res)
		for i := range tiers {
			tiers[i] += o.tiers[i]
		}
		instrs += o.instrs
		sim += o.sim
		wall += o.wall
		cpuUsed += o.cpu
		nsys = append(nsys, float64(o.newSys.Nanoseconds())/1e3)
		if o.est != nil {
			windows += o.est.Intervals
			waste += o.est.SpecWaste
			startupWins += int(b.ws.smp.Startup / b.ws.smp.Detailed)
			detailed += o.est.DetailedInstrs
			total += o.est.Total
		}
	}
	tierSum := float64(tiers[0] + tiers[1] + tiers[2])
	put("core.run_ns_per_instr", ratio(float64(sim.Nanoseconds()), float64(instrs)), "ns")
	put("core.tier_slow_frac", ratio(float64(tiers[0]), tierSum), "frac")
	put("core.tier_batch_frac", ratio(float64(tiers[1]), tierSum), "frac")
	put("core.tier_jit_frac", ratio(float64(tiers[2]), tierSum), "frac")
	put("core.newsystem_us", median(nsys), "us")
	unexplained := b.reconcile(outs, costs, acc)
	put("core.unexplained_frac", unexplained, "frac")

	var slowC, batchC, jitC []float64
	for _, c := range costs {
		slowC, batchC, jitC = append(slowC, c.slow), append(batchC, c.batch), append(jitC, c.jit)
	}
	put("cpu.step_ns_per_instr", median(slowC), "ns")
	put("cpu.batch_ns_per_instr", median(batchC), "ns")
	put("cpu.jit_ns_per_instr", median(jitC), "ns")
	perM := func(v float64) float64 { return ratio(v*1e6, float64(telInstrs)) }
	put("cpu.jit_compiles_per_minstr", perM(acc.count["jit_compiles"]), "1/Minstr")
	put("cpu.jit_revalidations_per_minstr", perM(acc.count["jit_revalidations"]), "1/Minstr")
	put("cpu.block_rebuilds_per_minstr", perM(acc.count["blockcache_rebuilds"]), "1/Minstr")

	put("program.clone_us", median(acc.vals["clone"]), "us")
	put("workloads.build_ms", median(acc.vals["build"]), "ms")

	put("memsys.load_ns", acc.perCall("memsys.load"), "ns")
	put("memsys.loadfast_ns", acc.perCall("memsys.loadfast"), "ns")
	put("memsys.warmload_ns", acc.perCall("memsys.warmload"), "ns")
	put("memsys.l1_miss_per_kinstr", ratio(float64(sum.Mem.L1Misses())*1e3, float64(sum.OrigInstrs)), "1/kinstr")

	put("streambuf.train_ns", acc.perCall("streambuf.train"), "ns")
	put("streambuf.lookup_ns", acc.perCall("streambuf.lookup"), "ns")
	put("streambuf.useful_frac", ratio(acc.count["sb.supplies"], acc.count["sb.fills"]), "frac")

	for _, name := range hwprefProbes {
		put("hwpref.train_ns."+name, acc.perCall("hwpref.train."+name), "ns")
	}
	put("hwpref.useful_frac", ratio(acc.count["hwp.supplies"], acc.count["hwp.fills"]), "frac")
	put("hwpref.switches", ratio(acc.count["hwpref_switches"], float64(len(b.kernels))), "count")

	put("dlt.update_ns", acc.perCall("dlt.update"), "ns")
	put("dlt.warm_ns", acc.perCall("dlt.warm"), "ns")
	put("dlt.events_per_minstr", ratio(float64(sum.DLTEvents)*1e6, float64(sum.OrigInstrs)), "1/Minstr")

	n := float64(len(outs))
	put("trident.events_dropped_frac", ratio(float64(sum.EventsDropped), float64(sum.EventsRaised)), "frac")
	put("trident.helper_active_frac", ratio(float64(sum.HelperActiveCycles), float64(sum.Cycles)), "frac")
	put("trace.optimize_us", acc.perCall("trace.optimize")/1e3, "us")
	put("trace.formed", float64(sum.TracesFormed)/n, "count")
	put("prefetch.insertions", float64(sum.Insertions)/n, "count")
	put("prefetch.repairs_per_insertion", ratio(float64(sum.Repairs), float64(sum.Insertions)), "ratio")
	put("prefetch.matured", float64(sum.Matured)/n, "count")

	put("checkpoint.save_state_ms", acc.perCall("checkpoint.save_state")/1e6, "ms")
	put("checkpoint.restore_state_ms", acc.perCall("checkpoint.restore_state")/1e6, "ms")
	put("checkpoint.state_kb", median(acc.vals["state_kb"]), "KiB")
	put("checkpoint.save_roi_us", acc.perCall("checkpoint.save_roi")/1e3, "us")
	put("checkpoint.restore_roi_us", acc.perCall("checkpoint.restore_roi")/1e3, "us")
	put("checkpoint.roi_kb", median(acc.vals["roi_kb"]), "KiB")

	put("sampling.ffwd_ns_per_instr", acc.perCall("sampling.ffwd"), "ns")
	put("sampling.rewarm_ns_per_instr", acc.perCall("sampling.rewarm"), "ns")
	put("sampling.chain_restore_ms", acc.perCall("sampling.chain_restore")/1e6, "ms")
	put("sampling.chain_rewarm_ms", acc.perCall("sampling.chain_rewarm")/1e6, "ms")
	put("sampling.chain_detailed_ms", acc.perCall("sampling.chain_detailed")/1e6, "ms")
	put("sampling.windows", float64(windows)/n, "count")
	// Executed chain windows: committed ones past the startup prefix plus
	// the discarded speculative ones.
	put("sampling.spec_waste_frac", ratio(float64(waste), float64(max(windows-startupWins, 0)+waste)), "frac")
	detFrac := 1.0
	if total > 0 {
		detFrac = float64(detailed) / float64(total)
	}
	put("sampling.detailed_frac", detFrac, "frac")
	jobs := max(1, b.ws.jobs)
	put("sampling.cpu_util", ratio(cpuUsed.Seconds(), wall.Seconds()*float64(jobs)), "frac")
	put("sampling.ipc_err_pct", max(plain.ipcErrPct, traced.ipcErrPct), "%")

	put("runtime.alloc_mb_per_minstr", ratio(float64(ms1.TotalAlloc-ms0.TotalAlloc)/(1<<20), float64(traced.instrs)/1e6), "MB/Minstr")
	put("runtime.gc_cpu_frac", ms1.GCCPUFraction, "frac")
	put("telemetry.enabled_overhead_frac", ratio(float64(telOn), float64(telOff))-1, "frac")
	// Both phases ran the same cells; compare them at reference host speed.
	put("bench.trace_overhead_frac", ratio(plain.throughput(), traced.throughput())-1, "frac")
	put("bench.failed_run_frac", failedFrac(all.failed, all.attempted), "frac")

	fmt.Printf("report %s\n", mustJSON(map[string]any{
		"workload":           b.ws.name,
		"traced_runs":        len(outs),
		"unexplained_frac":   unexplained,
		"unexplained_flag":   unexplained > unexplainedFlag,
		"unexplained_thresh": unexplainedFlag,
		"spans":              len(tr.spans),
		"span_file":          spanPath,
		"first_failures":     all.errs,
	}))
	if unexplained > unexplainedFlag {
		fmt.Fprintf(os.Stderr, "ladder: %s leaves %.1f%% of measured run time unexplained (flag at %.0f%%)\n",
			b.ws.name, 100*unexplained, 100*unexplainedFlag)
	}
	if err := writeSpans(spanPath, tr.spans, host); err != nil {
		return result{}, fmt.Errorf("write span file: %w", err)
	}
	return result{Correct: all.failed == 0, Attempted: all.attempted, Failed: all.failed, Metrics: m}, nil
}

// addResults sums the counters the layer metrics read.
func addResults(dst *core.Results, r core.Results) {
	dst.Cycles += r.Cycles
	dst.OrigInstrs += r.OrigInstrs
	for i := range dst.Mem.ByOutcome {
		dst.Mem.ByOutcome[i] += r.Mem.ByOutcome[i]
	}
	dst.DLTEvents += r.DLTEvents
	dst.EventsRaised += r.EventsRaised
	dst.EventsDropped += r.EventsDropped
	dst.HelperActiveCycles += r.HelperActiveCycles
	dst.TracesFormed += r.TracesFormed
	dst.Insertions += r.Insertions
	dst.Repairs += r.Repairs
	dst.Matured += r.Matured
}

// reconcile predicts each traced run's host time from unit costs × counts
// and returns the share of measured time the prediction leaves unexplained:
// |measured − predicted| / measured. Exact runs: pinned-tier cost × tier
// residency plus the per-call costs of Build (a ClonePristine of the cached
// master) and NewSystem, against wall time.
// Sampled runs execute on several goroutines, so they are compared against
// the run's CPU time, with functional instructions at the fast-forward and
// re-warm costs and one chain restore per executed chain.
func (b *bench) reconcile(outs []runOutcome, costs map[string]tierCost, acc *layerAcc) float64 {
	var measured, predicted float64
	clone := median(acc.vals["clone"]) * 1e3
	for _, o := range outs {
		c, ok := costs[o.kernel]
		if !ok {
			continue
		}
		p := c.slow*float64(o.tiers[0]) + c.batch*float64(o.tiers[1]) + c.jit*float64(o.tiers[2])
		p += clone + float64(o.newSys.Nanoseconds())
		if o.est == nil {
			measured += float64(o.wall.Nanoseconds())
			predicted += p
			continue
		}
		smp := b.ws.smp
		chains := float64(o.est.Intervals-o.est.PhaseExtras) - float64(smp.Startup/smp.Detailed) + float64(o.est.SpecWaste)
		chains = max(chains, 0)
		detCost := ratio(p, float64(o.tiers[0]+o.tiers[1]+o.tiers[2]))
		warm := chains * float64(smp.Warmup)
		ffwd := math.Max(float64(o.est.FFwdInstrs)-warm, 0)
		p += detCost * float64(o.est.SpecWaste) * float64(smp.Detailed)
		p += acc.perCall("sampling.ffwd")*ffwd + acc.perCall("sampling.rewarm")*warm
		p += chains * (acc.perCall("sampling.chain_restore") + float64(o.newSys.Nanoseconds()))
		measured += float64(o.cpu.Nanoseconds())
		predicted += p
	}
	return ratio(math.Abs(measured-predicted), measured)
}

// tierProbe times one fixed window per execution tier, each pinned by the
// engine knobs: the reference loop (DisableFastPath), the batch interpreter
// (JIT off), and the JIT (compile on first use).
func (b *bench) tierProbe(acc *layerAcc, bm workloads.Benchmark) tierCost {
	run := func(name string, pin func(*core.Config)) float64 {
		cfg := b.ws.config()
		pin(&cfg)
		sys := core.NewSystem(cfg, bm.Build(b.scale))
		id := b.tr.begin("core.System.Run.warm")
		start := sys.Run(b.probes.tierWarm).OrigInstrs
		b.tr.end(id)
		var r core.Results
		d := acc.timed(b.tr, "core.System.Run."+name, "cpu."+name, float64(b.probes.tierWindow), func() { r = sys.Run(start + b.probes.tierWindow) })
		return ratio(float64(d.Nanoseconds()), float64(r.OrigInstrs-start))
	}
	return tierCost{
		slow:  run("step", func(c *core.Config) { c.DisableFastPath = true }),
		batch: run("batch", func(c *core.Config) { c.JIT = false }),
		jit:   run("jit", func(c *core.Config) { c.JITThreshold = 0 }),
	}
}

// cloneProbe times program.ClonePristine on a built program.
func (b *bench) cloneProbe(acc *layerAcc, bm workloads.Benchmark) {
	p := bm.Build(b.scale)
	for i := 0; i < cloneReps; i++ {
		id := b.tr.begin("program.ClonePristine")
		t0 := time.Now()
		p.ClonePristine()
		acc.vals["clone"] = append(acc.vals["clone"], float64(time.Since(t0).Nanoseconds())/1e3)
		b.tr.end(id)
	}
}

// optimizeProbe re-runs trace.Optimize on clones of every base trace the
// run's optimizer formed (heads read from the trace-form telemetry events).
func (b *bench) optimizeProbe(acc *layerAcc, sys *core.System) {
	opt := sys.Optimizer()
	if opt == nil {
		return
	}
	for _, ev := range sys.Telemetry().AllEvents() {
		if ev.Kind != telemetry.KindTraceForm {
			continue
		}
		base, ok := opt.BaseTrace(ev.PC)
		if !ok {
			continue
		}
		clones := make([]*trace.Trace, optimizeReps)
		for i := range clones {
			clones[i] = base.Clone()
		}
		acc.timed(b.tr, "trace.Optimize.batch", "trace.optimize", optimizeReps, func() {
			for _, c := range clones {
				trace.Optimize(c)
			}
		})
	}
}

// captureLoads records the committed load stream of probes.streamInstrs
// instructions, after fast-forwarding past the program's start-up, through
// the functional executor's load probe.
func (b *bench) captureLoads(bm workloads.Benchmark) []load {
	cfg := b.ws.config()
	prog := bm.Build(b.scale)
	sys := core.NewSystem(cfg, prog)
	id := b.tr.begin("core.System.FastForward")
	sys.FastForward(b.probes.streamSkip, 0)
	b.tr.end(id)
	var loads []load
	pristine := prog.Pristine()
	probes := &cpu.FFProbes{Hier: memsys.New(cfg.Mem), Load: func(pc, addr uint64, l1Miss bool, now int64) {
		loads = append(loads, load{pc, addr, now, l1Miss})
	}}
	id = b.tr.begin("cpu.Thread.ExecFunctional")
	sys.Thread().ExecFunctional(pristine.Decoded(), pristine.Base, b.probes.streamInstrs, probes)
	b.tr.end(id)
	return loads
}

// hwprefProbes names the hwpref train probes: each static backend alone,
// then the selector over the whole arsenal.
var hwprefProbes = []string{"next-line", "stride", "best-offset", "ghb", "selector"}

// streamProbes replays one kernel's captured load stream through the
// memsys, streambuf, hwpref, and dlt entry points, one span per batch.
func (b *bench) streamProbes(acc *layerAcc, bm workloads.Benchmark) {
	loads := b.captureLoads(bm)
	n := float64(len(loads))
	if n == 0 {
		return
	}
	mcfg := b.ws.config().Mem
	end := loads[len(loads)-1].now + 1

	h := memsys.New(mcfg)
	acc.timed(b.tr, "memsys.Load.batch", "memsys.load", n, func() {
		for _, l := range loads {
			h.Load(l.pc, l.addr, l.now)
		}
	})
	acc.timed(b.tr, "memsys.LoadFast.batch", "memsys.loadfast", n, func() {
		for _, l := range loads {
			h.LoadFast(l.pc, l.addr, l.now+end)
		}
	})
	hw := memsys.New(mcfg)
	acc.timed(b.tr, "memsys.WarmLoad.batch", "memsys.warmload", n, func() {
		for _, l := range loads {
			hw.WarmLoad(l.pc, l.addr, l.now)
		}
	})

	sbCfg := streambuf.DefaultConfig()
	sbCfg.LineSize = mcfg.LineSize
	sb := streambuf.New(sbCfg, memsys.New(mcfg))
	acc.timed(b.tr, "streambuf.Train.batch", "streambuf.train", n, func() {
		for _, l := range loads {
			sb.Train(l.pc, l.addr, l.now, l.l1Miss)
		}
	})
	var misses []load
	for _, l := range loads {
		if l.l1Miss {
			misses = append(misses, l)
		}
	}
	shift := uint(math.Log2(float64(mcfg.LineSize)))
	acc.timed(b.tr, "streambuf.Lookup.batch", "streambuf.lookup", float64(len(misses)), func() {
		for _, l := range misses {
			sb.Lookup(l.addr>>shift, l.now+end)
		}
	})
	hs := memsys.New(mcfg)
	sbu := streambuf.New(sbCfg, hs)
	hs.SetPrefetcher(sbu)
	id := b.tr.begin("memsys.Load.streambuf.batch")
	for _, l := range loads {
		hs.Load(l.pc, l.addr, l.now)
	}
	b.tr.end(id)
	acc.count["sb.supplies"] += float64(sbu.Stats.Supplies)
	acc.count["sb.fills"] += float64(sbu.Stats.Fills)

	pc := hwpref.DefaultConfig()
	pc.LineSize = mcfg.LineSize
	sc := hwpref.DefaultSelectorConfig()
	for _, name := range hwprefProbes {
		var sel *hwpref.Selector
		port := memsys.New(mcfg)
		switch name {
		case "next-line":
			sel = hwpref.New(pc, sc, port, hwpref.NewNextLine(pc))
		case "stride":
			sel = hwpref.New(pc, sc, port, hwpref.NewStride(pc))
		case "best-offset":
			sel = hwpref.New(pc, sc, port, hwpref.NewBestOffset(pc))
		case "ghb":
			sel = hwpref.New(pc, sc, port, hwpref.NewGHB(pc))
		default:
			sel = hwpref.New(pc, sc, port, hwpref.Arsenal(pc)...)
		}
		acc.timed(b.tr, "hwpref.Train.batch."+name, "hwpref.train."+name, n, func() {
			for _, l := range loads {
				sel.Train(l.pc, l.addr, l.now, l.l1Miss)
			}
		})
	}
	hp := memsys.New(mcfg)
	sel := hwpref.New(pc, sc, hp, hwpref.Arsenal(pc)...)
	hp.SetPrefetcher(sel)
	id = b.tr.begin("memsys.Load.hwpref.batch")
	for _, l := range loads {
		hp.Load(l.pc, l.addr, l.now)
	}
	b.tr.end(id)
	tot := sel.TotalStats()
	acc.count["hwp.supplies"] += float64(tot.Supplies)
	acc.count["hwp.fills"] += float64(tot.Fills)

	tbl := dlt.New(dlt.DefaultConfig())
	acc.timed(b.tr, "dlt.UpdateAt.batch", "dlt.update", n, func() {
		for _, l := range loads {
			var lat int64
			if l.l1Miss {
				lat = missLatency
			}
			tbl.UpdateAt(l.pc, l.addr, l.l1Miss, lat, l.now)
		}
	})
	warm := dlt.New(dlt.DefaultConfig())
	acc.timed(b.tr, "dlt.Warm.batch", "dlt.warm", n, func() {
		for _, l := range loads {
			warm.Warm(l.pc, l.addr)
		}
	})
}

// samplingProbes times functional fast-forward, warm fast-forward, and one
// sampled window chain replayed from outside the scheduler: run the
// startup prefix, snapshot it (SaveState), fast-forward to a grid slot's
// warm-up start and take its ROI snapshot (SaveROI), then on a fresh
// machine restore both, re-warm, and run one detailed window. The
// checkpoint metrics come from the same calls.
func (b *bench) samplingProbes(acc *layerAcc, bm workloads.Benchmark) {
	cfg := b.ws.config()
	smp := b.ws.smp
	if smp.Interval == 0 {
		smp = sampling.DefaultConfig()
	}
	fresh := func() *core.System {
		id := b.tr.begin("core.NewSystem")
		defer b.tr.end(id)
		return core.NewSystem(cfg, bm.Build(b.scale))
	}

	ff := fresh()
	acc.timed(b.tr, "core.System.FastForward.pure", "sampling.ffwd", float64(b.probes.ffwd), func() { ff.FastForward(b.probes.ffwd, 0) })
	acc.timed(b.tr, "core.System.FastForward.warm", "sampling.rewarm", float64(b.probes.rewarm), func() { ff.FastForward(b.probes.rewarm, b.probes.rewarm) })

	master := fresh()
	id := b.tr.begin("core.System.Run.startup")
	master.Run(smp.Startup)
	master.Quiesce(10_000_000)
	b.tr.end(id)
	var s0 []byte
	var err error
	acc.timed(b.tr, "core.System.SaveState", "checkpoint.save_state", 1, func() { s0, err = master.SaveState() })
	if err != nil {
		return
	}
	acc.vals["state_kb"] = append(acc.vals["state_kb"], float64(len(s0))/1024)
	k := master.Progress()/smp.Interval + 2
	id = b.tr.begin("core.System.FastForward.gap")
	master.FastForward(k*smp.Interval-smp.Warmup-master.Progress(), 0)
	b.tr.end(id)
	var roi []byte
	acc.timed(b.tr, "core.System.SaveROI", "checkpoint.save_roi", 1, func() { roi = master.SaveROI() })
	acc.vals["roi_kb"] = append(acc.vals["roi_kb"], float64(len(roi))/1024)

	chain := fresh()
	var rerr error
	restore := acc.timed(b.tr, "core.System.RestoreState", "checkpoint.restore_state", 1, func() { rerr = chain.RestoreState(s0) })
	if rerr != nil {
		return
	}
	restore += acc.timed(b.tr, "core.System.RestoreROI", "checkpoint.restore_roi", 1, func() { rerr = chain.RestoreROI(roi) })
	if rerr != nil {
		return
	}
	acc.ns["sampling.chain_restore"] += restore
	acc.calls["sampling.chain_restore"]++
	acc.timed(b.tr, "core.System.FastForward.chain", "sampling.chain_rewarm", 1, func() { chain.FastForward(smp.Warmup, smp.Warmup) })
	acc.timed(b.tr, "core.System.Run.chain", "sampling.chain_detailed", 1, func() { chain.Run(chain.OrigInstrs() + smp.Detailed) })
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
