package core

import (
	"fmt"
	"testing"

	"tridentsp/internal/chaos"
	"tridentsp/internal/isa"
	"tridentsp/internal/memsys"
	"tridentsp/internal/program"
	"tridentsp/internal/workloads"
)

// The fast path (fastpath.go, cpu.ExecSuperBlock) claims bit-identical machine
// behaviour to the reference one-step loop. These tests prove it by running
// every workload, a config ablation matrix, and every chaos preset twice —
// once per path — and requiring Results (a comparable struct: == is the
// exact check), the final PC, and the full register file to match exactly.

// diffRun executes the same benchmark twice, with the fast path enabled and
// disabled, and fails the test on any observable divergence.
func diffRun(t *testing.T, label string, cfg Config, bm workloads.Benchmark,
	sc workloads.Scale, limit uint64) {
	t.Helper()
	fast := cfg
	fast.DisableFastPath = false
	slow := cfg
	slow.DisableFastPath = true

	sysF := NewSystem(fast, bm.Build(sc))
	sysS := NewSystem(slow, bm.Build(sc))
	resF := sysF.Run(limit)
	resS := sysS.Run(limit)

	if resF != resS {
		t.Errorf("%s: Results diverged\nfast: %+v\nslow: %+v", label, resF, resS)
		return
	}
	if pcF, pcS := sysF.Thread().PC(), sysS.Thread().PC(); pcF != pcS {
		t.Errorf("%s: final PC diverged: fast %#x, slow %#x", label, pcF, pcS)
	}
	for r := isa.Reg(0); r < isa.NumRegs; r++ {
		if vF, vS := sysF.Thread().Reg(r), sysS.Thread().Reg(r); vF != vS {
			t.Errorf("%s: r%d diverged: fast %#x, slow %#x", label, r, vF, vS)
		}
	}
	// The memory system is where the fast path actually diverges in
	// mechanism (LoadFast probe, inline stores and prefetches, deferred
	// sweeps), so its counters are asserted explicitly: first the per-
	// outcome load classification — partial hits and prefetch-displacement
	// misses are where timing bugs would surface — then the whole Stats
	// struct (comparable, so == is the exact check).
	stF, stS := sysF.hier.Stats, sysS.hier.Stats
	for o := memsys.Outcome(0); int(o) < memsys.NumOutcomes; o++ {
		if stF.ByOutcome[o] != stS.ByOutcome[o] {
			t.Errorf("%s: %v loads diverged: fast %d, slow %d",
				label, o, stF.ByOutcome[o], stS.ByOutcome[o])
		}
	}
	if stF != stS {
		t.Errorf("%s: memsys.Stats diverged\nfast: %+v\nslow: %+v", label, stF, stS)
	}
}

func TestFastPathDifferentialAllWorkloads(t *testing.T) {
	for _, bm := range workloads.All() {
		bm := bm
		t.Run(bm.Name, func(t *testing.T) {
			diffRun(t, bm.Name, DefaultConfig(), bm, workloads.ScaleSmall, 200_000)
		})
	}
}

func TestFastPathDifferentialConfigMatrix(t *testing.T) {
	matrix := []struct {
		name string
		cfg  Config
	}{
		{"baseline-none", BaselineConfig(HWNone)},
		{"baseline-4x4", BaselineConfig(HW4x4)},
		{"baseline-8x8", BaselineConfig(HW8x8)},
		{"default", DefaultConfig()},
		{"sw-basic", func() Config { c := DefaultConfig(); c.SW = SWBasic; return c }()},
		{"sw-whole-object", func() Config { c := DefaultConfig(); c.SW = SWWholeObject; return c }()},
		{"sw-off-trident", func() Config { c := DefaultConfig(); c.SW = SWOff; return c }()},
		{"link-disabled", func() Config { c := DefaultConfig(); c.LinkTraces = false; return c }()},
		{"backout", func() Config {
			c := DefaultConfig()
			c.Backout = true
			c.BackoutMinEntries = 64
			c.BackoutRatio = 0.9
			return c
		}()},
		{"valspec", func() Config { c := DefaultConfig(); c.ValueSpecialize = true; return c }()},
		{"phase", func() Config {
			c := DefaultConfig()
			c.PhaseClearMature = true
			c.PhaseWindow = 20_000
			c.PhaseDelta = 0.1
			return c
		}()},
		{"estimate-init", func() Config { c := DefaultConfig(); c.InitFromEstimate = true; return c }()},
		{"no-deref", func() Config { c := DefaultConfig(); c.DerefPointers = false; return c }()},
		{"no-livelock", func() Config { c := DefaultConfig(); c.LivelockWindow = 0; return c }()},
	}
	for _, bench := range []string{"swim", "mcf", "art"} {
		bm, ok := workloads.ByName(bench)
		if !ok {
			t.Fatalf("unknown benchmark %q", bench)
		}
		for _, m := range matrix {
			m := m
			t.Run(bench+"/"+m.name, func(t *testing.T) {
				diffRun(t, bench+"/"+m.name, m.cfg, bm, workloads.ScaleSmall, 150_000)
			})
		}
	}
}

func TestFastPathDifferentialChaosPresets(t *testing.T) {
	for _, preset := range chaos.Presets() {
		preset := preset
		// mcf and dot put edges on in-trace, miss-heavy code: their hooked
		// misses must stop before the load while a chaos edge is pending.
		for _, bench := range []string{"swim", "mcf", "dot"} {
			bm, ok := workloads.ByName(bench)
			if !ok {
				t.Fatalf("unknown benchmark %q", bench)
			}
			t.Run(string(preset)+"/"+bench, func(t *testing.T) {
				sched, err := chaos.NewSchedule(preset, 1, 400_000)
				if err != nil {
					t.Fatal(err)
				}
				cfg := DefaultConfig()
				cfg.Backout = true
				cfg.PhaseClearMature = true
				cfg.Chaos = sched
				cfg.ChaosMonitorEvery = 20_000
				cfg.ChaosShadow = true
				diffRun(t, fmt.Sprintf("%s/%s", preset, bench), cfg, bm,
					workloads.ScaleSmall, 150_000)
			})
		}
	}
}

// TestFastPathResumableRuns guards the windowed-Run pattern the resilience
// experiment uses: repeated Run calls with growing limits must land on the
// same intermediate snapshots on both paths.
func TestFastPathResumableRuns(t *testing.T) {
	bm, _ := workloads.ByName("swim")
	sched, err := chaos.NewSchedule(chaos.PresetLatencyPhase, 1, 400_000)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Chaos = sched
	cfg.ChaosMonitorEvery = 20_000

	fast := cfg
	slow := cfg
	slow.DisableFastPath = true
	sysF := NewSystem(fast, bm.Build(workloads.ScaleSmall))
	sysS := NewSystem(slow, bm.Build(workloads.ScaleSmall))
	for target := uint64(10_000); target <= 150_000; target += 10_000 {
		resF := sysF.Run(target)
		resS := sysS.Run(target)
		if resF != resS {
			t.Fatalf("windowed run diverged at target %d\nfast: %+v\nslow: %+v",
				target, resF, resS)
		}
	}
}

// TestFastPathTierResidencyAddsUp: every retired original instruction is
// attributed to exactly one execution tier, so on a fresh Run the tiers'
// residencies sum to OrigInstrs under every engine, with and without the
// divergence sentinel (whose reference replays retire through step()). An
// engine never reports residency in a tier it cannot reach.
func TestFastPathTierResidencyAddsUp(t *testing.T) {
	engines := []struct {
		name       string
		engine     Engine
		batch, jit bool // tiers the engine may retire on
	}{
		{"slowpath", Engine{DisableFastPath: true}, false, false},
		{"interp", Engine{JIT: false}, true, false},
		{"default", DefaultConfig().Engine, true, true},
		{"jit-eager", Engine{JIT: true, JITThreshold: 0}, true, true},
	}
	for _, kernel := range []string{"swim", "mcf"} {
		bm, ok := workloads.ByName(kernel)
		if !ok {
			t.Fatalf("%s missing", kernel)
		}
		for _, e := range engines {
			for _, sentinel := range []bool{false, true} {
				name := fmt.Sprintf("%s/%s/sentinel=%v", kernel, e.name, sentinel)
				t.Run(name, func(t *testing.T) {
					cfg := DefaultConfig()
					cfg.Engine = e.engine
					if sentinel {
						cfg.SentinelEvery, cfg.SentinelWindow = 50_000, 20_000
					}
					sys := NewSystem(cfg, bm.Build(workloads.ScaleSmall))
					res := sys.Run(200_000)
					if sentinel && e.batch && res.SentinelChecks == 0 {
						t.Fatal("sentinel armed on a fast engine but never checked a window")
					}
					slow, batch, jit := sys.TierInstrs()
					if got, want := slow+batch+jit, sys.OrigInstrs(); got != want {
						t.Fatalf("slow %d + batch %d + jit %d = %d, OrigInstrs %d",
							slow, batch, jit, got, want)
					}
					if (!e.batch && batch != 0) || (!e.jit && jit != 0) {
						t.Fatalf("unreachable tier retired work: batch %d, jit %d", batch, jit)
					}
					if e.batch && batch+jit == 0 {
						t.Fatal("fast engine retired nothing off the reference loop")
					}
				})
			}
		}
	}
}

// TestFastPathSentinelCadence: the divergence sentinel ticks only between
// fast-path sessions, so a loop that never needs step() — its misses retire
// inside batches, and with Trident off nothing is patched — must still end
// its sessions at every window boundary and reach the configured number of
// checks, without the armed sentinel perturbing the run.
func TestFastPathSentinelCadence(t *testing.T) {
	// A 4 KiB array walk: the first pass misses, later passes hit, and the
	// back-edge is always taken, so batches fold for the whole run.
	b := program.NewBuilder("cadence", 0x1000, 1<<20)
	arr := b.Alloc(4 << 10)
	b.Ldi(1, arr)
	b.Ldi(2, (4<<10)-8)
	b.Label("loop")
	b.Op(isa.ADD, 4, 1, 3)
	b.Ld(5, 4, 0)
	b.Op(isa.ADD, 6, 6, 5)
	b.OpI(isa.ADDI, 3, 3, 8)
	b.Op(isa.AND, 3, 3, 2)
	b.CondBr(isa.BNE, 1, "loop")
	b.Halt()
	prog := b.MustBuild()

	const every, window, limit = 30_000, 10_000, 195_000
	// Windows open at 30k, 70k, 110k, 150k and 190k; the last is still open
	// when the run ends.
	const want = limit / (every + window)
	for _, e := range []struct {
		name   string
		engine Engine
	}{
		{"default", DefaultConfig().Engine},
		{"jit-eager", Engine{JIT: true, JITThreshold: 0}},
	} {
		t.Run(e.name, func(t *testing.T) {
			cfg := BaselineConfig(HWNone)
			cfg.Engine = e.engine
			plain := NewSystem(cfg, prog.ClonePristine())
			resPlain := plain.Run(limit)
			cfg.SentinelEvery, cfg.SentinelWindow = every, window
			sys := NewSystem(cfg, prog.ClonePristine())
			res := sys.Run(limit)
			if slow, _, _ := sys.TierInstrs(); slow != 0 {
				t.Fatalf("%d instructions retired through step(); the loop must never need it", slow)
			}
			if sys.hier.Stats.ByOutcome[memsys.Miss] == 0 {
				t.Fatal("no L1 misses; the loop never retired a miss in a batch")
			}
			if res.SentinelChecks != want || res.SentinelTrips != 0 {
				t.Fatalf("sentinel checks %d, trips %d; want %d checks and no trips",
					res.SentinelChecks, res.SentinelTrips, want)
			}
			if zeroSentinel(res) != resPlain {
				t.Errorf("armed sentinel perturbed the run\narmed: %+v\nplain: %+v", res, resPlain)
			}
		})
	}
}
