// Command tridentsim runs one or more benchmarks on one simulated machine
// and prints their statistics — the single-run counterpart of
// cmd/experiments.
//
// Usage:
//
//	tridentsim -bench mcf                  # self-repairing default machine
//	tridentsim -bench swim -sw off -hw 8x8 # hardware prefetching only
//	tridentsim -bench art -sw basic -hw none -instrs 5000000
//	tridentsim -bench mcf -scale small -v  # verbose: per-outcome breakdown
//	tridentsim -bench mcf -chaos eviction-storm -chaos-seed 7
//	tridentsim -bench swim,mcf,art -j 3    # fan benchmarks across workers
//	tridentsim -bench mcf -checkpoint-every 500000 -checkpoint-dir ckpt
//	tridentsim -bench mcf -restore ckpt/mcf.ckpt   # resume after a crash
//	tridentsim -bench mcf -sentinel                # online divergence check
//	tridentsim -bench mcf -instrs 500000000 -sample -roi-cache roi
//
// With several -bench names the runs execute concurrently (bounded by -j;
// 0 = all CPUs) and the reports print in the order the names were given.
//
// With -chaos, a deterministic fault-injection schedule perturbs each run
// (see internal/chaos for the presets), the invariant watchdog and its
// architectural-transparency check are attached, and the process exits
// non-zero if any run aborts or violates an invariant.
//
// With -checkpoint-every, the (single) run executes in windows and writes a
// crash-safe checkpoint file after each one; -restore resumes from such a
// file and the finished run is bit-identical to one that was never
// interrupted, even if the writing process was SIGKILLed mid-checkpoint.
// The file records the invocation's identity — benchmark, scale, sampling
// grid, and core.Config.Identity, the canonical encoding of every machine
// knob (chaos schedule and telemetry ring included) except the engine ones —
// and refuses to load into a mismatched invocation. The engine knobs
// (-slowpath, -jit, -jit-threshold) and the instruction budget are left
// out: a checkpoint cut on one engine resumes on any other, and a resume
// may extend the run (under -chaos the schedule's horizon derives from
// -instrs, so there the budget is pinned).
//
// With -sample, the run is interval-sampled (DESIGN §14, §15): detailed
// windows on the full engine alternate with functional fast-forward gaps,
// statistics are extrapolated from the windows with error bars, and
// -roi-cache lets a sweep reuse one run's fast-forward work as on-disk
// region-of-interest checkpoints. -sample-jobs N runs up to N detailed
// windows at once on worker machines; estimates, error bars, trigger
// decisions, and exported telemetry are byte-identical at every N (only the
// speculation-waste diagnostic on stderr is jobs-dependent). Sampled runs
// compose with -checkpoint-every/-restore (the checkpoint then carries the
// scheduler's schedule state too) but not with -chaos (the fault schedule
// runs on the simulated clock, which stands still across a functional gap)
// or -sentinel (replay windows cannot span one).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"tridentsp/internal/chaos"
	"tridentsp/internal/checkpoint"
	"tridentsp/internal/core"
	"tridentsp/internal/memsys"
	"tridentsp/internal/sampling"
	"tridentsp/internal/telemetry"
	"tridentsp/internal/workloads"
)

func main() {
	cfg := core.DefaultConfig()
	var (
		bench   = flag.String("bench", "mcf", "comma-separated benchmark names")
		hw      = flag.String("hw", "8x8", "hardware prefetcher: "+core.HWNames())
		sw      = flag.String("sw", "self-repair", "software prefetching: "+core.SWNames())
		trident = flag.Bool("trident", true, "enable the Trident framework")
		link    = flag.Bool("link", true, "link optimized traces (false = §5.1 overhead mode)")
		valspec = flag.Bool("valspec", false, "enable dynamic value specialization")
		instrs  = flag.Uint64("instrs", 2_000_000, "instruction budget")
		scale   = flag.String("scale", "full", "working-set scale: "+workloads.ScaleNames())
		verbose = flag.Bool("v", false, "print the full outcome breakdown")
		preset  = flag.String("chaos", "", "fault-injection preset: "+presetList())
		seed    = flag.Uint64("chaos-seed", 1, "fault-injection schedule seed (requires -chaos)")
		jobs    = flag.Int("j", 0, "max concurrent benchmark runs (0 = all CPUs)")

		hwDegree   = flag.Int("hw-degree", cfg.HWDegree, "prefetch degree for the arsenal backends (-hw next-line/stride/best-offset/ghb/selector)")
		selProbe   = flag.Uint64("selector-probe", cfg.SelectorProbe, "committed loads per backend probe epoch (-hw selector)")
		selExploit = flag.Uint64("selector-exploit", cfg.SelectorExploit, "exploit phase length as a multiple of the probe epoch (-hw selector)")

		sample         = flag.Bool("sample", false, "interval-sampled run: detailed windows + functional fast-forward with live warmup (DESIGN §14)")
		sampleInterval = flag.Uint64("sample-interval", 0, "sampling grid period in original instructions (0 = default)")
		sampleDetailed = flag.Uint64("sample-detailed", 0, "detailed window length in original instructions (0 = default)")
		sampleWarmup   = flag.Uint64("sample-warmup", 0, "warm fast-forward window before each detailed window (0 = default)")
		sampleStartup  = flag.Uint64("sample-startup", 0, "fully detailed startup prefix so the optimizer converges before sampling (0 = default)")
		sampleJobs     = flag.Int("sample-jobs", 1, "detailed-window chains executing at once inside a sampled run, at least 1; above 1, twice as many are launched speculatively and wait their turn (DESIGN §15); estimates are byte-identical at any value")
		roiCache       = flag.String("roi-cache", "", "directory of region-of-interest checkpoints; sampled gaps restore from (or populate) it")

		ckptEvery  = flag.Uint64("checkpoint-every", 0, "write a crash-safe checkpoint every N original instructions (single -bench only; 0 = off)")
		ckptDir    = flag.String("checkpoint-dir", "checkpoints", "directory for checkpoint files")
		restore    = flag.String("restore", "", "resume from this checkpoint file (single -bench only)")
		sentinel   = flag.Bool("sentinel", false, "arm the online divergence sentinel at its default cadence")
		sentEvery  = flag.Uint64("sentinel-every", 0, "open a sentinel window every N original instructions (implies -sentinel)")
		sentWindow = flag.Uint64("sentinel-window", 0, "sentinel window length in original instructions (default: every/4; requires -sentinel or -sentinel-every)")

		traceOut   = flag.String("trace-out", "", "write the telemetry event stream as JSONL to this file")
		chromeOut  = flag.String("chrome-out", "", "write the event stream as Chrome trace_event JSON (load in chrome://tracing or Perfetto)")
		metricsOut = flag.String("metrics-out", "", "write the metrics registry as JSON to this file")
		traceRing  = flag.Int("trace-ring", 0, "telemetry ring capacity in events (0 = default; requires -trace-out, -chrome-out or -metrics-out)")
	)
	cfg.Engine.RegisterFlags(flag.CommandLine)
	flag.Parse()

	fail := func(code int, format string, args ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
		os.Exit(code)
	}
	bms, err := workloads.ParseList(*bench)
	if err != nil {
		fail(1, "%v", err)
	}
	sc, err := workloads.ParseScale(*scale)
	if err == nil {
		cfg.HW, err = core.ParseHW(*hw)
	}
	if err == nil {
		cfg.SW, err = core.ParseSW(*sw)
	}
	if err != nil {
		fail(1, "%v", err)
	}
	cfg.HWDegree = *hwDegree
	cfg.SelectorProbe = *selProbe
	cfg.SelectorExploit = *selExploit
	if !cfg.HW.Arsenal() {
		for _, f := range []string{"hw-degree", "selector-probe", "selector-exploit"} {
			if flagWasSet(f) {
				fail(2, "-%s requires an arsenal backend (-hw next-line/stride/best-offset/ghb/selector)", f)
			}
		}
	}
	// Companion flags: each shapes a feature another flag switches on, so
	// set alone it would be silently ignored.
	for _, c := range []struct {
		name, needs string
		on          bool
	}{
		{"chaos-seed", "-chaos", *preset != ""},
		{"sentinel-window", "-sentinel or -sentinel-every", *sentinel || *sentEvery > 0},
		{"trace-ring", "-trace-out, -chrome-out or -metrics-out", *traceOut != "" || *chromeOut != "" || *metricsOut != ""},
	} {
		if !c.on && flagWasSet(c.name) {
			fail(2, "-%s requires %s", c.name, c.needs)
		}
	}
	cfg.Trident = *trident
	cfg.LinkTraces = *link
	cfg.ValueSpecialize = *valspec
	if cfg.SW == core.SWOff {
		// Plain baseline unless Trident was explicitly requested.
		cfg.Trident = *trident && flagWasSet("trident")
	}

	// Sentinel cadence: -sentinel-every sets it directly, bare -sentinel
	// picks a default; the window defaults to a quarter of the cadence.
	if *sentEvery == 0 && *sentinel {
		*sentEvery = 200_000
	}
	if *sentEvery > 0 {
		w := *sentWindow
		if w == 0 {
			w = max(*sentEvery/4, 1)
		}
		cfg.SentinelEvery, cfg.SentinelWindow = *sentEvery, w
	}

	// Chaos configuration is validated up front — a typoed preset should be
	// a usage error, not a mid-run surprise. Horizon in cycles: twice the
	// instruction budget covers the whole run for any IPC above 0.5. A
	// Schedule is immutable (each System expands it into a private edge
	// cursor), so one instance is safely shared by every concurrent run.
	chaosCfg := chaos.Config{Preset: chaos.Preset(*preset), Seed: *seed, Horizon: int64(*instrs) * 2}
	if err := chaosCfg.Validate(); err != nil {
		fail(2, "invalid -chaos/-chaos-seed: %v\nusage: -chaos {%s} [-chaos-seed N]", err, presetList())
	}
	if cfg.Chaos, err = chaosCfg.Schedule(); err != nil {
		fail(1, "%v (presets: %s)", err, presetList())
	}
	if *traceOut != "" || *chromeOut != "" || *metricsOut != "" {
		cfg.Telemetry = &telemetry.Options{RingCap: *traceRing}
	}
	if err := cfg.Validate(); err != nil {
		fail(1, "%v", err)
	}

	o := runOptions{
		instrs: *instrs, every: *ckptEvery, dir: *ckptDir, restore: *restore,
		verbose: *verbose, multi: len(bms) > 1,
		traceOut: *traceOut, chromeOut: *chromeOut, metricsOut: *metricsOut,
		sample: *sample, sampleJobs: *sampleJobs, roiDir: *roiCache,
	}
	// Sampled-mode flag hygiene: the shaping flags require -sample, and the
	// two run modes whose semantics need every instruction simulated in
	// detail (chaos faults, divergence sentinel) are rejected up front.
	if !*sample {
		for _, f := range []string{"sample-interval", "sample-detailed", "sample-warmup", "sample-startup", "sample-jobs", "roi-cache"} {
			if flagWasSet(f) {
				fail(2, "-%s requires -sample", f)
			}
		}
	} else {
		if *preset != "" {
			fail(2, "-sample is incompatible with -chaos: the fault schedule runs on the simulated clock, which stands still across a functional fast-forward gap, so a sampled run would meet other faults than the run it estimates")
		}
		if cfg.SentinelEvery > 0 {
			fail(2, "-sample is incompatible with -sentinel: divergence replay windows cannot span a functional fast-forward gap")
		}
		if *sampleJobs < 1 {
			fail(2, "-sample-jobs must be at least 1 (got %d)", *sampleJobs)
		}
		o.smpCfg = sampling.Config{
			Interval: *sampleInterval,
			Detailed: *sampleDetailed,
			Warmup:   *sampleWarmup,
			Startup:  *sampleStartup,
		}.WithDefaults()
		if err := o.smpCfg.Validate(); err != nil {
			fail(2, "%v", err)
		}
	}

	if (o.every > 0 || o.restore != "") && len(bms) != 1 {
		fail(2, "-checkpoint-every/-restore support exactly one -bench (got %d)\n"+
			"usage: tridentsim -bench <name> -checkpoint-every N [-checkpoint-dir D] [-restore F]", len(bms))
	}

	// Fan the benchmarks across workers; reports print in argument order.
	nj := *jobs
	if nj <= 0 {
		nj = runtime.NumCPU()
	}
	sem := make(chan struct{}, nj)
	outs := make([]chan outcome, len(bms))
	for i, bm := range bms {
		outs[i] = make(chan outcome, 1)
		go func() {
			sem <- struct{}{}
			defer func() { <-sem }()
			outs[i] <- runBench(bm, cfg, sc, o)
		}()
	}
	exitCode := 0
	for i := range bms {
		out := <-outs[i]
		fmt.Print(out.report)
		if out.err != nil {
			fmt.Fprintf(os.Stderr, "%v\n", out.err)
		}
		exitCode = max(exitCode, out.code)
	}
	os.Exit(exitCode)
}

// runOptions carries the per-benchmark run driver's knobs.
type runOptions struct {
	instrs     uint64
	every      uint64 // checkpoint window in original instructions (0 = off)
	dir        string
	restore    string // checkpoint file to resume from ("" = fresh start)
	verbose    bool
	multi      bool // several benchmarks: splice names into output paths
	traceOut   string
	chromeOut  string
	metricsOut string
	sample     bool
	smpCfg     sampling.Config // effective (defaulted) schedule when sample is set
	sampleJobs int
	roiDir     string
}

// identity is the invocation fingerprint stored in every checkpoint file:
// benchmark, scale, the machine's canonical identity (core.Config.Identity,
// which leaves out the engine knobs — the tiers are bit-identical, so a
// checkpoint resumes under any of them), and for sampled runs the sampling
// grid a resumed scheduler replays. The instruction budget is deliberately
// excluded so a resume may extend the run, and so is -sample-jobs:
// estimates are byte-identical at any parallelism.
func (o runOptions) identity(bm workloads.Benchmark, sc workloads.Scale, cfg core.Config) string {
	id := fmt.Sprintf("tridentsim bench=%s scale=%s %s", bm.Name, sc, cfg.Identity())
	if o.sample {
		id += " " + checkpoint.Identity("Sample", o.smpCfg)
	}
	return id
}

// outcome is one benchmark's finished run: its report, its exit code (2
// for an aborted run or invariant violations, 1 for an error), and the
// error to print after the report.
type outcome struct {
	report string
	code   int
	err    error
}

// ckptFile is a run's checkpoint plumbing: the identity every file carries,
// the file to write (empty = not checkpointing), and the payload to resume
// from (nil = fresh start).
type ckptFile struct {
	meta    string
	path    string
	payload []byte
}

// write publishes one checkpoint, reporting (not failing on) write errors:
// the run itself is unaffected.
func (f ckptFile) write(blob []byte) bool {
	if err := checkpoint.WriteFile(f.path, f.meta, blob); err != nil {
		fmt.Fprintf(os.Stderr, "warning: writing %s: %v\n", f.path, err)
		return false
	}
	return true
}

// runBench is the one run driver: it executes bm to the budget, exact or
// sampled, resuming from o.restore when set and writing a crash-safe
// checkpoint every o.every instructions when positive. A plain run is the
// case with neither.
func runBench(bm workloads.Benchmark, cfg core.Config, sc workloads.Scale, o runOptions) outcome {
	f := ckptFile{meta: o.identity(bm, sc, cfg)}
	if o.restore != "" {
		meta, payload, err := checkpoint.ReadFile(o.restore)
		if err != nil {
			return outcome{code: 1, err: fmt.Errorf("restore %s: %w", o.restore, err)}
		}
		if meta != f.meta {
			return outcome{code: 2, err: fmt.Errorf("restore %s: checkpoint belongs to a different invocation (- file, + this):\n%s",
				o.restore, checkpoint.IdentityDiff(meta, f.meta, 8))}
		}
		f.payload = payload
	}
	if o.every > 0 {
		if err := os.MkdirAll(o.dir, 0o777); err != nil {
			return outcome{code: 1, err: fmt.Errorf("checkpoint dir: %w", err)}
		}
		f.path = filepath.Join(o.dir, bm.Name+".ckpt")
	}

	build := func() *core.System { return core.NewSystem(cfg, bm.Build(sc)) }
	sys := build()
	var (
		res    core.Results
		report string
		events func() []telemetry.Event
		err    error
	)
	if o.sample {
		var est sampling.Estimate
		est, events, err = runSampled(sys, build, bm, sc, f, o)
		res, report = est.Raw, renderSampled(est, o.verbose)
		reportROI(est)
	} else {
		res, err = runExact(sys, f, o)
		report, events = renderRun(res, o.verbose), sys.Telemetry().AllEvents
	}
	if err != nil {
		return outcome{code: 1, err: err}
	}
	out := outcome{report: report}
	if res.Aborted != "" || res.InvariantViolations > 0 {
		out.code = 2
	}
	if cfg.Telemetry != nil {
		if out.err = exportTelemetry(events(), sys.Telemetry(), bm.Name, o); out.err != nil {
			out.code = max(out.code, 1)
		}
	}
	return out
}

// runExact runs an exact simulation in windows of o.every instructions,
// checkpointing after each (one window to the budget when not
// checkpointing).
func runExact(sys *core.System, f ckptFile, o runOptions) (core.Results, error) {
	if f.payload != nil {
		if err := sys.RestoreState(f.payload); err != nil {
			return core.Results{}, fmt.Errorf("restore %s: %w", o.restore, err)
		}
	}
	for {
		next := o.instrs
		if f.path != "" {
			next = min(next, sys.OrigInstrs()+o.every)
		}
		res := sys.Run(next)
		if f.path == "" || res.Aborted != "" || sys.Thread().Halted() || sys.OrigInstrs() >= o.instrs {
			return res, nil
		}
		blob, err := sys.SaveState()
		if err != nil {
			return res, fmt.Errorf("checkpoint at %d instructions: %w", sys.OrigInstrs(), err)
		}
		f.write(blob)
	}
}

// runSampled runs an interval-sampled simulation. The scheduler fires
// OnCommit at every snapshot-safe point — each startup window and each
// completed window chain — and the checkpoint payload is the scheduler's own
// state (which embeds the machine snapshot it needs: the full master during
// startup, the startup snapshot plus the committed record afterwards), so a
// resumed run replays the identical schedule, trigger decisions, and even
// speculation waste. It returns the estimate and the run's event stream.
func runSampled(sys *core.System, build func() *core.System, bm workloads.Benchmark, sc workloads.Scale,
	f ckptFile, o runOptions) (sampling.Estimate, func() []telemetry.Event, error) {
	var roi *sampling.ROICache
	if o.roiDir != "" {
		roi = sampling.NewROICache(o.roiDir, bm.Name, sc.String(), o.smpCfg)
	}
	var schd *sampling.Scheduler
	nextCkpt := uint64(0)
	opts := sampling.Options{Jobs: o.sampleJobs, NewSystem: build}
	if f.path != "" {
		opts.OnCommit = func(progress uint64) {
			if progress < nextCkpt {
				return
			}
			c := checkpoint.NewSaver()
			c.Mark("tridentsim.sampled")
			if schd.Checkpoint(c); c.Err() != nil {
				fmt.Fprintf(os.Stderr, "warning: checkpoint at %d instructions: %v\n", progress, c.Err())
				return
			}
			if f.write(c.Bytes()) {
				nextCkpt = progress + o.every
			}
		}
	}
	schd, err := sampling.NewScheduler(sys, o.smpCfg, roi, opts)
	if err != nil {
		return sampling.Estimate{}, nil, err
	}
	if f.payload != nil {
		c := checkpoint.NewLoader(f.payload)
		c.Mark("tridentsim.sampled")
		schd.Checkpoint(c)
		if err := c.Finish(); err != nil {
			return sampling.Estimate{}, nil, fmt.Errorf("restore %s: %w", o.restore, err)
		}
	}
	nextCkpt = sys.Progress() + o.every
	est := schd.Run(o.instrs)
	return est, schd.Events, schd.Err()
}

// outPath derives the per-benchmark output file: with one benchmark the path
// is used as given; with several, the benchmark name is inserted before the
// extension ("out.jsonl" -> "out.mcf.jsonl") so concurrent runs do not
// clobber one file.
func outPath(path, bench string, multi bool) string {
	if !multi {
		return path
	}
	ext := filepath.Ext(path)
	return strings.TrimSuffix(path, ext) + "." + bench + ext
}

// exportTelemetry writes the requested telemetry artifacts for one run.
// events is the run's stream — the tracer's own for exact runs, the
// scheduler's slot-ordered merge for sampled ones (identical at every
// -sample-jobs). The metrics registry always comes from the master tracer:
// chain workers run on private machines whose registries die with them, a
// documented limitation of sampled-mode -metrics-out.
func exportTelemetry(events []telemetry.Event, tel *telemetry.Tracer, bench string, o runOptions) error {
	write := func(path string, fn func(w io.Writer) error) error {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := fn(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	if o.traceOut != "" {
		err := write(outPath(o.traceOut, bench, o.multi), func(w io.Writer) error {
			return telemetry.WriteJSONL(w, events)
		})
		if err != nil {
			return fmt.Errorf("writing %s trace: %w", bench, err)
		}
	}
	if o.chromeOut != "" {
		err := write(outPath(o.chromeOut, bench, o.multi), func(w io.Writer) error {
			return telemetry.WriteChromeTrace(w, events)
		})
		if err != nil {
			return fmt.Errorf("writing %s chrome trace: %w", bench, err)
		}
	}
	if o.metricsOut != "" {
		err := write(outPath(o.metricsOut, bench, o.multi), func(w io.Writer) error {
			return tel.Metrics().WriteJSON(w)
		})
		if err != nil {
			return fmt.Errorf("writing %s metrics: %w", bench, err)
		}
	}
	return nil
}

func renderRun(res core.Results, verbose bool) string {
	var sb strings.Builder
	sb.WriteString(res.String())
	if verbose {
		sb.WriteString("outcome breakdown:\n")
		for out := 0; out < memsys.NumOutcomes; out++ {
			pct := 0.0
			if res.Mem.Loads > 0 {
				pct = 100 * float64(res.Mem.ByOutcome[out]) / float64(res.Mem.Loads)
			}
			fmt.Fprintf(&sb, "  %-22s %10d  %6.2f%%\n", memsys.Outcome(out), res.Mem.ByOutcome[out], pct)
		}
		fmt.Fprintf(&sb, "  prefetches: issued=%d redundant=%d dropped=%d wasted=%d\n",
			res.Mem.PrefetchesIssued, res.Mem.PrefetchesRedundant,
			res.Mem.PrefetchesDropped, res.Mem.WastedPrefetches)
		fmt.Fprintf(&sb, "  stream buffers: supplies=%d fills=%d\n", res.SBSupplies, res.SBFills)
		fmt.Fprintf(&sb, "  branch accuracy: %.3f\n", res.BranchAccuracy)
		fmt.Fprintf(&sb, "  events: raised=%d dropped=%d; code cache %d bytes, %d live traces\n",
			res.EventsRaised, res.EventsDropped, res.CodeCacheBytes, res.LiveTraces)
		fmt.Fprintf(&sb, "  extensions: specialized=%d\n", res.TracesSpecialized)
	}
	return sb.String()
}

// renderSampled prints the extrapolated results of a sampled run followed by
// a sampling summary: how the budget split between detailed and fast-forward
// execution, the interval count, and the estimator's own 95% error bars.
func renderSampled(est sampling.Estimate, verbose bool) string {
	var sb strings.Builder
	sb.WriteString(renderRun(est.Sampled, verbose))
	det, ff := est.DetailedInstrs, est.FFwdInstrs
	pct := 0.0
	if det+ff > 0 {
		pct = 100 * float64(det) / float64(det+ff)
	}
	fmt.Fprintf(&sb, "sampled: %d intervals (%d phase-triggered), %d detailed + %d fast-forward instrs (%.1f%% detailed)\n",
		est.Intervals, est.PhaseExtras, det, ff, pct)
	fmt.Fprintf(&sb, "  95%% error bars: ipc ±%.2f%%  coverage ±%.2f%%  accuracy ±%.2f%%\n",
		100*est.Err["ipc"], 100*est.Err["coverage"], 100*est.Err["accuracy"])
	return sb.String()
}

// reportROI prints region-of-interest cache statistics and speculation
// waste to stderr. They stay out of the stdout report deliberately: a cold
// run (all misses), a warm one (all hits), a resumed one (fewer gaps left),
// and runs at different -sample-jobs (different waste) all produce
// byte-identical simulation reports, and execution logistics must not break
// that diff.
func reportROI(est sampling.Estimate) {
	if est.ROIHits+est.ROIMisses > 0 {
		fmt.Fprintf(os.Stderr, "roi cache: %d hits, %d misses\n", est.ROIHits, est.ROIMisses)
	}
	if est.SpecWaste > 0 {
		fmt.Fprintf(os.Stderr, "speculation: %d windows executed and discarded\n", est.SpecWaste)
	}
}

func presetList() string {
	var names []string
	for _, p := range chaos.Presets() {
		names = append(names, string(p))
	}
	return strings.Join(names, ", ")
}

func flagWasSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}
