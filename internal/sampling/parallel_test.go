package sampling

import (
	"reflect"
	"slices"
	"testing"

	"tridentsp/internal/asm"
	"tridentsp/internal/checkpoint"
	"tridentsp/internal/core"
	"tridentsp/internal/telemetry"
)

// churnConfig makes detailed windows half an interval long, like the
// default schedule, so a phase extension swallows the next grid slot and
// speculation is actually discarded.
func churnConfig() Config {
	return Config{Interval: 100_000, Detailed: 50_000, Warmup: 10_000, PhaseDelta: 0.5, Startup: 300_000}
}

// Jobs bounds the chains executing a window, not the chains launched:
// above one job the reconciler launches 2·Jobs, and the run slots must
// keep all but Jobs of them waiting.
func TestRunningChainsBoundedByJobs(t *testing.T) {
	for _, jobs := range []int{1, 2, 8} {
		for _, bench := range []string{"art", "swim"} {
			sched := newScheduler(t, bench, churnConfig(), nil, jobs)
			launched := 0
			sched.onLaunch = func(uint64) { launched++ }
			sched.Run(2_000_000)
			if err := sched.Err(); err != nil {
				t.Fatalf("%s jobs=%d: %v", bench, jobs, err)
			}
			peak := sched.run.peakBusy()
			if peak < 1 || peak > jobs {
				t.Errorf("%s jobs=%d: %d chains executed at once", bench, jobs, peak)
			}
			if launched <= jobs && jobs > 1 {
				t.Errorf("%s jobs=%d: only %d chains launched; the bound was never tested", bench, jobs, launched)
			}
		}
	}
}

// Which launched chains happen to execute first depends on thread timing;
// which chains are launched, and so how many are discarded, must not.
func TestSpeculationRepeatable(t *testing.T) {
	for _, jobs := range []int{2, 8} {
		for _, bench := range []string{"art", "vis"} {
			var refWaste int
			var refLaunched []uint64
			for run := 0; run < 5; run++ {
				sched := newScheduler(t, bench, churnConfig(), nil, jobs)
				var launched []uint64
				sched.onLaunch = func(k uint64) { launched = append(launched, k) }
				est := sched.Run(2_000_000)
				if err := sched.Err(); err != nil {
					t.Fatalf("%s jobs=%d: %v", bench, jobs, err)
				}
				slices.Sort(launched)
				if run == 0 {
					if est.SpecWaste == 0 {
						t.Fatalf("%s jobs=%d: no speculation was discarded; pick a churnier workload", bench, jobs)
					}
					refWaste, refLaunched = est.SpecWaste, launched
					continue
				}
				if est.SpecWaste != refWaste {
					t.Errorf("%s jobs=%d run %d: SpecWaste %d, first run %d", bench, jobs, run, est.SpecWaste, refWaste)
				}
				if !slices.Equal(launched, refLaunched) {
					t.Errorf("%s jobs=%d run %d: launched slots %v, first run %v", bench, jobs, run, launched, refLaunched)
				}
			}
		}
	}
}

// outcome is everything a sampled run reports that must not depend on how
// it was executed.
type outcome struct {
	est    Estimate
	ivs    []Interval
	events []telemetry.Event
}

// shapeRuns runs one schedule straight at jobs, snapshotting the scheduler
// at a mid-startup commit (startup shape) and at the first and last chain
// commits (windowed shape), then resumes each snapshot into a fresh
// scheduler. It returns the straight run's scheduler and outcome, and each
// resumed run's outcome by shape name; the windowed shapes are absent when
// the run never reached S0.
func shapeRuns(t *testing.T, build func() *core.System, cfg Config, total uint64, jobs int) (*Scheduler, outcome, map[string]outcome) {
	t.Helper()
	newSched := func(o Options) *Scheduler {
		o.Jobs, o.NewSystem = jobs, build
		s, err := NewScheduler(build(), cfg, nil, o)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	snaps := map[string][]byte{}
	commits := 0
	var sched *Scheduler
	sched = newSched(Options{OnCommit: func(uint64) {
		commits++
		e := checkpoint.NewEncoder()
		if err := sched.SaveState(e); err != nil {
			t.Fatal(err)
		}
		switch {
		case commits == 3:
			snaps["startup"] = e.Bytes()
		case sched.windowed && snaps["windowed-first"] == nil:
			snaps["windowed-first"] = e.Bytes()
		case sched.windowed:
			snaps["windowed-last"] = e.Bytes()
		}
	}})
	ref := sched.Run(total)
	if err := sched.Err(); err != nil {
		t.Fatal(err)
	}
	if snaps["startup"] == nil {
		t.Fatal("no mid-startup snapshot")
	}
	resumed := map[string]outcome{}
	for name, blob := range snaps {
		s := newSched(Options{})
		if err := s.LoadState(checkpoint.NewDecoder(blob)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		est := s.Run(total)
		if err := s.Err(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		resumed[name] = outcome{est, s.Intervals(), s.Events()}
	}
	return sched, outcome{ref, sched.Intervals(), sched.Events()}, resumed
}

// semantic returns the interval records without their tier residency.
func semantic(ivs []Interval) []Interval {
	out := slices.Clone(ivs)
	for i := range out {
		out[i].TierSlow, out[i].TierBatch, out[i].TierJIT = 0, 0, 0
	}
	return out
}

// checkShapes runs the schedule at jobs 1, 2 and 8, straight and through
// every resume shape, and requires every run to report what the serial
// straight run reports (speculation waste aside across jobs; resumed runs
// match their own straight run exactly). It returns the serial straight
// run's scheduler for case-specific checks.
func checkShapes(t *testing.T, build func() *core.System, cfg Config, total uint64, wantWindowed bool) *Scheduler {
	t.Helper()
	var serial *Scheduler
	var ref outcome
	for _, jobs := range []int{1, 2, 8} {
		sched, got, resumed := shapeRuns(t, build, cfg, total, jobs)
		if sched.windowed != wantWindowed {
			t.Fatalf("jobs=%d: windowed=%v, want %v", jobs, sched.windowed, wantWindowed)
		}
		if _, ok := resumed["windowed-last"]; wantWindowed && !ok {
			t.Fatalf("jobs=%d: fewer than two chain commits; no windowed-last shape", jobs)
		}
		for name, r := range resumed {
			// Tier residency is engine state: a restore resets it, so a
			// resumed prefix attributes tiers differently (DESIGN §13).
			if !reflect.DeepEqual(r.est, got.est) || !reflect.DeepEqual(semantic(r.ivs), semantic(got.ivs)) ||
				!reflect.DeepEqual(r.events, got.events) {
				t.Errorf("jobs=%d %s resume differs from the straight run:\nresumed:  %+v\nstraight: %+v",
					jobs, name, r.est, got.est)
			}
		}
		if jobs == 1 {
			serial, ref = sched, got
			continue
		}
		got.est.SpecWaste = ref.est.SpecWaste
		if !reflect.DeepEqual(got.est, ref.est) || !reflect.DeepEqual(got.ivs, ref.ivs) ||
			!reflect.DeepEqual(dropSpec(got.events), dropSpec(ref.events)) {
			t.Errorf("jobs=%d: run differs from serial:\nserial:   %+v\nparallel: %+v", jobs, ref.est, got.est)
		}
	}
	return serial
}

// phaseStartup is a grid on which vis's startup prefix is phase-extended
// past Startup, to p0 = 193,251 — beyond the warm-up start (190,000) of
// the first grid slot the producer streams.
func phaseStartup() Config {
	return Config{Interval: 100_000, Detailed: 15_000, Warmup: 10_000, PhaseDelta: 0.5, Startup: 150_000}
}

// A budget that ends inside the startup prefix leaves the run master-only
// and exact. Within Startup no producer starts; past Startup but short of a
// phase-extended p0 one starts alongside the prefix and must be stopped
// and joined without a trace in the result.
func TestEarlyProducerBudgetInsideStartup(t *testing.T) {
	for _, tc := range []struct {
		total    uint64
		producer bool
	}{{120_000, false}, {180_000, true}} {
		sched := checkShapes(t, sysFactory(t, "vis"), phaseStartup(), tc.total, false)
		if started := sched.prodDone != nil; started != tc.producer {
			t.Errorf("total %d: producer started = %v, want %v", tc.total, started, tc.producer)
		}
		est := sched.Estimate()
		if est.Total != sched.sys.Progress() || est.FFwdInstrs != 0 || est.Sampled != est.Raw {
			t.Errorf("total %d: master-only run is not exact: %+v", tc.total, est)
		}
	}
}

// When the phase-extended prefix passes the first streamed slot's warm-up
// start, that slot's warm-up is clipped to start at p0, and its snapshot
// must be the master's at p0: the producer's snapshot of the same slot is
// earlier and longer-warmed. The first chain window must equal one run by
// hand from S0 with the clipped warm-up.
func TestEarlyProducerClippedSlotFromMaster(t *testing.T) {
	cfg := phaseStartup().WithDefaults()
	sched := checkShapes(t, sysFactory(t, "vis"), cfg, 900_000, true)
	I, W := cfg.Interval, cfg.Warmup
	k := sched.p0/I + 1
	startupPhase := slices.ContainsFunc(sched.intervals[:sched.nStartupIvs], func(iv Interval) bool { return iv.Phase })
	if !startupPhase || sched.p0 <= cfg.Startup || k*I-W >= sched.p0 || k*I-W < cfg.Startup {
		t.Fatalf("precondition: want a phase-extended p0 (%d) past slot %d's warm-up start %d, which the producer streams",
			sched.p0, k, k*I-W)
	}
	sys := sysFactory(t, "vis")()
	if err := sys.RestoreState(sched.s0Blob); err != nil {
		t.Fatal(err)
	}
	warm := k*I - sched.p0
	sys.FastForward(warm, warm)
	want, _ := runWindow(sys, cfg.Detailed)
	if got := sched.intervals[sched.nStartupIvs]; !reflect.DeepEqual(got, want) {
		t.Errorf("first chain window differs from S0 + clipped warm-up:\ngot  %+v\nwant %+v", got, want)
	}
}

// haltProgram is a hot loop that halts after 409,621 instructions: on
// haltConfig's grid, past slot 6's window (ending 370,000) and before slot
// 7's warm-up starts (415,000), so the halt falls in the run's final gap.
func haltProgram() func() *core.System {
	prog := asm.MustAssemble("halter", `
		.space arr, 1048576
		    ldi  r6, 5
		outer:
		    ldi  r1, arr
		    ldi  r4, 16384
		top:
		    ld   r2, 0(r1)
		    add  r3, r3, r2
		    addi r1, r1, 64
		    subi r4, r4, 1
		    bne  r4, top
		    subi r6, r6, 1
		    bne  r6, outer
		    halt
	`)
	return func() *core.System {
		cfg := core.DefaultConfig()
		cfg.Telemetry = &telemetry.Options{RingCap: 1024}
		return core.NewSystem(cfg, prog)
	}
}

func haltConfig() Config {
	return Config{Interval: 60_000, Detailed: 10_000, Warmup: 5_000, PhaseDelta: 0.5, Startup: 100_000}
}

// A halt inside the final gap is seen only by the producer, so the gap's
// fast-forward marker must carry the producer's machine's PC — the halt
// point — whatever the master's or any chain's machine shows.
func TestEarlyProducerHaltInFinalGap(t *testing.T) {
	build := haltProgram()
	ref := build()
	ref.FastForward(10_000_000, 0)
	if !ref.Thread().Halted() {
		t.Fatal("halt program did not halt")
	}
	haltAt, haltPC := ref.Progress(), ref.Thread().PC()

	const total = 1_000_000
	sched := checkShapes(t, build, haltConfig(), total, true)
	est := sched.Estimate()
	last := sched.intervals[len(sched.intervals)-1]
	if est.Total != haltAt || last.End >= haltAt || sched.lastSlot(total)*haltConfig().Interval <= haltAt {
		t.Fatalf("precondition: want the halt (%d) after the last window (ends %d), inside the budget; total %d",
			haltAt, last.End, est.Total)
	}
	evs := sched.Events()
	ff := evs[len(evs)-2] // the spec marker closes the stream
	if ff.Kind != telemetry.KindSampleFF || ff.PC != haltPC || ff.Aux != haltAt || ff.Arg != int64(haltAt-last.End) {
		t.Errorf("final gap marker %+v, want sample-ff at pc %#x aux %d arg %d", ff, haltPC, haltAt, haltAt-last.End)
	}
}
