package core

import (
	"strings"
	"testing"

	"tridentsp/internal/chaos"
	"tridentsp/internal/isa"
	"tridentsp/internal/program"
	"tridentsp/internal/workloads"
)

// chaosConfig is the full-featured machine under fault injection, with
// watchdog probing and the transparency check against the architectural
// twin.
func chaosConfig(sched *chaos.Schedule) Config {
	cfg := DefaultConfig()
	cfg.HW = HWNone
	cfg.Chaos = sched
	cfg.ChaosMonitorEvery = 20_000
	return cfg
}

// TestDeterministicResults guards the whole simulator against hidden
// nondeterminism: two runs of an identical configuration — including an
// identical chaos seed — must produce byte-identical Results. Results is a
// comparable struct, so == is the exact check.
func TestDeterministicResults(t *testing.T) {
	t.Run("baseline", func(t *testing.T) {
		cfg := DefaultConfig()
		run := func() Results {
			return NewSystem(cfg, strideWorkload(65536, 64, 4)).Run(400_000)
		}
		r1, r2 := run(), run()
		if r1 != r2 {
			t.Fatalf("identical configs diverged:\n%v\nvs\n%v", r1, r2)
		}
	})
	t.Run("chaos", func(t *testing.T) {
		sched, err := chaos.NewSchedule(chaos.PresetMonkey, 99, 2_000_000)
		if err != nil {
			t.Fatal(err)
		}
		cfg := chaosConfig(sched)
		run := func() Results {
			return NewSystem(cfg, strideWorkload(65536, 64, 4)).Run(400_000)
		}
		r1, r2 := run(), run()
		if r1 != r2 {
			t.Fatalf("identical chaos seeds diverged:\n%v\nvs\n%v", r1, r2)
		}
		if r1.ChaosFaults == 0 {
			t.Fatal("no chaos faults applied: the determinism check is vacuous")
		}
		if r1.WatchdogProbes == 0 {
			t.Fatal("watchdog never probed")
		}
	})
}

// TestChaosPresetsKeepInvariants is the core acceptance gate: under every
// named preset, on several distinct workloads, the watchdog must report
// zero invariant violations, the shadow run must stay architecturally
// identical, and the machine must keep optimizing (traces live, repair
// activity present) — i.e. it degrades and recovers rather than breaking.
// The workload-shift preset runs on flipPhaseWorkload, whose own branch flip
// and miss-rate shift land between the preset's injected phase changes.
func TestChaosPresetsKeepInvariants(t *testing.T) {
	type workload struct {
		name string
		prog func() *program.Program
	}
	workloads := []workload{
		{"stride", func() *program.Program { return strideWorkload(65536, 64, 4) }},
		{"chase", func() *program.Program { return pointerWorkload(16384, 64) }},
		{"phase", phaseWorkload},
	}
	runs := []struct {
		preset    chaos.Preset
		workloads []workload
	}{
		{chaos.PresetLatencyPhase, workloads},
		{chaos.PresetEvictionStorm, workloads},
		{chaos.PresetHelperPreemption, workloads},
		{chaos.PresetWorkloadShift, []workload{{"flip-phase", flipPhaseWorkload}}},
	}
	for _, r := range runs {
		for _, wl := range r.workloads {
			preset, wl := r.preset, wl
			t.Run(string(preset)+"/"+wl.name, func(t *testing.T) {
				sched, err := chaos.NewSchedule(preset, 7, 1_500_000)
				if err != nil {
					t.Fatal(err)
				}
				sys := NewSystem(chaosConfig(sched), wl.prog())
				res := sys.Run(500_000)
				if res.Aborted != "" {
					t.Fatalf("aborted: %s", res.Aborted)
				}
				if res.ChaosFaults == 0 {
					t.Fatal("no faults applied: preset did not exercise anything")
				}
				if res.WatchdogProbes == 0 {
					t.Fatal("watchdog never probed")
				}
				if res.InvariantViolations != 0 {
					t.Fatalf("%d invariant violations, first: %s",
						res.InvariantViolations, res.FirstViolation)
				}
				if res.TracesFormed == 0 {
					t.Fatal("no traces formed under chaos")
				}
				if res.LiveTraces == 0 {
					t.Fatal("no trace survived or re-formed: the machine did not recover")
				}
			})
		}
	}
}

// TestEvictionStormRepairContinues pins the self-healing path specifically:
// a watch-table eviction storm must not permanently silence the repair
// loop — the watch entry is re-registered on the next trace entry and
// delinquent events keep flowing.
func TestEvictionStormRepairContinues(t *testing.T) {
	sched, err := chaos.NewSchedule(chaos.PresetEvictionStorm, 3, 2_500_000)
	if err != nil {
		t.Fatal(err)
	}
	sys := NewSystem(chaosConfig(sched), strideWorkload(131072, 64, 4))
	res := sys.Run(900_000)
	if res.InvariantViolations != 0 {
		t.Fatalf("violations: %s", res.FirstViolation)
	}
	if res.Insertions == 0 {
		t.Fatal("prefetching never inserted under eviction storm")
	}
	if res.Repairs+res.Insertions < 2 {
		t.Fatalf("optimizer activity died after evictions: insertions=%d repairs=%d",
			res.Insertions, res.Repairs)
	}
}

// TestTransparencyCheckReportsDivergence: the watchdog's transparency probe
// catches a corrupted architectural register. A one-shot fast-path fault
// flips a high bit of r3, the stride kernel's running sum (live to the end,
// but it never steers control), so a later probe must name r3 rather than a
// control divergence. Trident is off: with the loop linked into a trace the
// PC sits in the code cache at nearly every probe, where the check defers.
func TestTransparencyCheckReportsDivergence(t *testing.T) {
	sched, err := chaos.NewSchedule(chaos.PresetLatencyPhase, 5, 2_000_000)
	if err != nil {
		t.Fatal(err)
	}
	cfg := chaosConfig(sched)
	cfg.Trident = false
	sys := NewSystem(cfg, strideWorkload(65536, 64, 4))
	sys.InjectFastPathFault(100_000, 3, 1<<50)
	res := sys.Run(400_000)
	if res.InvariantViolations == 0 {
		t.Fatal("a flipped live register went unreported")
	}
	if !strings.Contains(res.FirstViolation, "transparency") || !strings.Contains(res.FirstViolation, "r3 diverged") {
		t.Fatalf("first violation %q, want the transparency check naming r3", res.FirstViolation)
	}
}

// TestUnlinkCancelsPendingChange: unlinking a trace while a prefetch insert
// or a value specialization for it is pending cancels that change. The
// helper stays busy until the change's completion cycle, and at that cycle
// nothing lands: the head stays unlinked (landing would re-link it to a
// version computed from the evicted trace), and a checkpoint cut after the
// unlink carries no pending change.
func TestUnlinkCancelsPendingChange(t *testing.T) {
	specialize := DefaultConfig()
	specialize.ValueSpecialize = true
	for _, c := range []struct {
		name, bench string
		cfg         Config
		kind        pendingKind
	}{
		{"prefetch-insert", "mcf", DefaultConfig(), pendPrefetch},
		{"specialize", "art", specialize, pendSpecialize},
	} {
		t.Run(c.name, func(t *testing.T) {
			bm, _ := workloads.ByName(c.bench)
			sys := NewSystem(c.cfg, bm.Build(workloads.ScaleSmall))
			// Step to the first pending change of the wanted kind (for a
			// prefetch change, an insert: it places a new version).
			for i, inserts := 0, uint64(0); ; i++ {
				if p := sys.pending; p != nil && p.kind == c.kind &&
					(c.kind != pendPrefetch || sys.opt.Stats.Insertions > inserts) {
					break
				}
				if i == 2_000_000 || sys.thread.Halted() {
					t.Fatalf("no pending change of kind %d", c.kind)
				}
				if sys.opt != nil {
					inserts = sys.opt.Stats.Insertions
				}
				sys.step()
			}
			p := sys.pending
			we, ok := sys.watch.ByStart(p.head)
			if !ok {
				t.Fatalf("pending change for head %#x, which has no watch entry", p.head)
			}
			pl, ok := sys.cache.PlacementByID(we.TraceID)
			if !ok || !pl.Live {
				t.Fatalf("head %#x has no live placement", p.head)
			}
			now := sys.thread.Now()
			sys.unlinkTrace(pl, now)
			if sys.pending != nil {
				t.Fatal("the pending change survived the unlink")
			}
			if !sys.helper.Busy(now) {
				t.Fatal("the helper went idle before the cancelled change's completion cycle")
			}
			blob, _ := sys.SaveState()
			fresh := NewSystem(c.cfg, bm.Build(workloads.ScaleSmall))
			// The optimizer's own record must be gone too: one left for the
			// forgotten head would be refused as corrupt here.
			if err := fresh.RestoreState(blob); err != nil {
				t.Fatal(err)
			}
			if fresh.pending != nil {
				t.Fatal("a checkpoint cut after the unlink carries a pending change")
			}
			for !sys.thread.Halted() && sys.thread.Now() <= p.at {
				sys.step()
			}
			if sys.isPatched(p.head) {
				t.Fatalf("head %#x was re-linked at the cancelled change's completion cycle", p.head)
			}
		})
	}
}

// TestChaosRandomProgramTransparency extends the repo's strongest property
// test with fault injection: across random programs, the chaotic fully
// optimizing machine must still halt with bit-identical architectural state
// to the plain machine, with the continuous shadow check clean throughout.
func TestChaosRandomProgramTransparency(t *testing.T) {
	seeds := []int64{3, 7, 11, 19}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		seed := seed
		t.Run("", func(t *testing.T) {
			ref := NewSystem(BaselineConfig(HWNone), randomProgram(seed))
			ref.Run(1 << 62)
			if !ref.Thread().Halted() {
				t.Fatalf("seed %d: reference did not halt", seed)
			}

			sched, err := chaos.NewSchedule(chaos.PresetMonkey, uint64(seed), 500_000)
			if err != nil {
				t.Fatal(err)
			}
			cfg := chaosConfig(sched)
			cfg.ChaosMonitorEvery = 5_000
			sys := NewSystem(cfg, randomProgram(seed))
			res := sys.Run(1 << 62)
			if !sys.Thread().Halted() {
				t.Fatalf("seed %d: chaotic run did not halt", seed)
			}
			if res.InvariantViolations != 0 {
				t.Fatalf("seed %d: %d violations, first: %s",
					seed, res.InvariantViolations, res.FirstViolation)
			}
			for reg := isa.Reg(0); reg < isa.NumRegs; reg++ {
				if reg == 30 { // optimizer scratch register
					continue
				}
				if ref.Thread().Reg(reg) != sys.Thread().Reg(reg) {
					t.Errorf("seed %d: r%d differs: %#x vs %#x",
						seed, reg, ref.Thread().Reg(reg), sys.Thread().Reg(reg))
				}
			}
			a, b := ref.mem.Snapshot(), sys.mem.Snapshot()
			if len(a) != len(b) {
				t.Fatalf("seed %d: memory footprints differ: %d vs %d", seed, len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("seed %d: memory differs at %#x: %#x vs %#x",
						seed, a[i].Addr, a[i].Val, b[i].Val)
				}
			}
		})
	}
}

// TestLivelockDetection: a weight-zero self-loop (what a bad patch would
// leave behind) must abort with a livelock reason instead of spinning to
// the cycle limit. The loop is constructed by marking the program's
// self-branch as a patch site, which excludes it from original-instruction
// accounting.
func TestLivelockDetection(t *testing.T) {
	b := program.NewBuilder("spin", 0x1000, 0x1000000)
	b.Label("L")
	b.Br("L")
	b.Halt()
	p := b.MustBuild()

	cfg := DefaultConfig()
	cfg.LivelockWindow = 10_000
	sys := NewSystem(cfg, p)
	sys.setPatched(p.Entry, true) // simulate a patch gone wrong
	res := sys.Run(100)
	if res.Aborted == "" {
		t.Fatal("livelock not detected")
	}
	if !strings.Contains(res.Aborted, "livelock") {
		t.Fatalf("unexpected abort reason: %s", res.Aborted)
	}
	if res.Cycles > 1_000_000 {
		t.Fatalf("spun too long before aborting: %d cycles", res.Cycles)
	}
}

// TestHealthyRunsDoNotAbort guards the detector's false-positive rate: the
// default window must never trip on real workloads, including memory-bound
// ones whose per-instruction latency is hundreds of cycles.
func TestHealthyRunsDoNotAbort(t *testing.T) {
	res := NewSystem(DefaultConfig(), pointerWorkload(65536, 64)).Run(150_000)
	if res.Aborted != "" {
		t.Fatalf("healthy run aborted: %s", res.Aborted)
	}
}

// flipPhaseWorkload alternates two phases: a cache-resident one whose
// data-dependent branch flips direction after 10,000 iterations (so the
// trace formed before the flip side-exits afterwards), then a streaming one
// over a large array (the miss-rate shift of phaseWorkload).
func flipPhaseWorkload() *program.Program {
	b := program.NewBuilder("flip-phase", 0x1000, 0x1000000)
	flag := b.AllocWords(1) // 1 during warmup, 0 afterwards
	small := b.Alloc(16 << 10)
	big := b.Alloc(16 << 20)

	b.Ldi(6, 1<<40)
	b.Ldi(8, 10_000) // flip countdown
	b.Ldi(9, flag)
	b.Label("outer")
	// Phase A: cache-resident, with the flip branch.
	b.Ldi(1, small)
	b.Ldi(4, 30_000)
	b.Label("top")
	b.Ld(2, 9, 0) // the flip flag
	b.CondBr(isa.BEQ, 2, "cold")
	b.OpI(isa.ADDI, 5, 5, 1)
	b.OpI(isa.ADDI, 5, 5, 1)
	b.Br("join")
	b.Label("cold")
	b.OpI(isa.ADDI, 7, 7, 1)
	b.OpI(isa.ADDI, 7, 7, 1)
	b.Label("join")
	b.Ld(3, 1, 0)
	b.OpI(isa.ADDI, 1, 1, 8)
	b.OpI(isa.ANDI, 1, 1, (16<<10)-1)
	// Flip the flag off when the r8 countdown hits zero.
	b.OpI(isa.SUBI, 8, 8, 1)
	b.CondBr(isa.BNE, 8, "noflip")
	b.St(isa.ZeroReg, 9, 0)
	b.Label("noflip")
	b.OpI(isa.SUBI, 4, 4, 1)
	b.CondBr(isa.BNE, 4, "top")
	// Phase B: streaming misses.
	b.Ldi(1, big)
	b.Ldi(4, 60_000)
	b.Label("pb")
	b.Ld(2, 1, 0)
	b.OpI(isa.ADDI, 1, 1, 64)
	b.Op(isa.ADD, 3, 3, 2)
	b.OpI(isa.SUBI, 4, 4, 1)
	b.CondBr(isa.BNE, 4, "pb")
	b.OpI(isa.SUBI, 6, 6, 1)
	b.CondBr(isa.BNE, 6, "outer")
	b.Halt()
	p := b.MustBuild()
	p.Data.Store(flag, 1)
	return p
}

// TestConfigValidate covers the descriptive-rejection satellite: each
// misconfiguration must produce an error (and NewSystem must panic with
// it), while the stock configurations pass.
func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("DefaultConfig invalid: %v", err)
	}
	if err := BaselineConfig(HW8x8).Validate(); err != nil {
		t.Fatalf("BaselineConfig invalid: %v", err)
	}

	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"zero issue width", func(c *Config) { c.CPU.IssueWidth = 0 }},
		{"zero mem latency", func(c *Config) { c.Mem.MemLatency = 0 }},
		{"negative bus occupancy", func(c *Config) { c.Mem.BusOccupancy = -1 }},
		{"non-power-of-two line", func(c *Config) { c.Mem.LineSize = 48 }},
		{"one-byte line", func(c *Config) { c.Mem.LineSize = 1 }}, // line addresses must pack below 2⁶³
		{"zero inflight", func(c *Config) { c.Mem.MaxInFlight = 0 }},
		{"zero DLT window", func(c *Config) { c.DLT.WindowSize = 0 }},
		{"zero DLT assoc", func(c *Config) { c.DLT.Assoc = 0 }},
		{"zero watch capacity", func(c *Config) { c.WatchCapacity = 0 }},
		{"zero event queue", func(c *Config) { c.EventQueueCap = 0 }},
		{"max distance below 1", func(c *Config) { c.MaxDistanceCap = 0 }},
		{"scratch reg out of file", func(c *Config) { c.ScratchReg = 200 }},
		{"negative livelock window", func(c *Config) { c.LivelockWindow = -1 }},
		{"negative monitor period", func(c *Config) { c.ChaosMonitorEvery = -5 }},
		{"bad chaos schedule", func(c *Config) {
			c.Chaos = &chaos.Schedule{Events: []chaos.Event{{Kind: chaos.DLTFlush, At: -3}}}
		}},
	}
	for _, tc := range cases {
		cfg := DefaultConfig()
		tc.mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}

	t.Run("NewSystemPanics", func(t *testing.T) {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("NewSystem accepted an invalid config")
			}
			if !strings.Contains(r.(string), "invalid config") {
				t.Fatalf("unexpected panic: %v", r)
			}
		}()
		cfg := DefaultConfig()
		cfg.DLT.WindowSize = 0
		NewSystem(cfg, strideWorkload(1024, 64, 0))
	})
}

// TestChaosZeroOverheadPathIdentical: a Config without chaos must behave
// exactly as before the harness existed — same Results as a config that
// carries an empty schedule (no events, no monitor, no shadow).
func TestChaosNoFaultsMatchesNoChaos(t *testing.T) {
	plain := DefaultConfig()
	r1 := NewSystem(plain, strideWorkload(32768, 64, 2)).Run(200_000)

	empty := DefaultConfig()
	empty.Chaos = &chaos.Schedule{Preset: "empty", Seed: 0}
	empty.ChaosMonitorEvery = 0 // no watchdog either
	r2 := NewSystem(empty, strideWorkload(32768, 64, 2)).Run(200_000)

	// ChaosFaults is 0 on both; every other field must agree too.
	if r1 != r2 {
		t.Fatalf("empty chaos schedule perturbed the run:\n%v\nvs\n%v", r1, r2)
	}
}
