package core

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"

	"tridentsp/internal/chaos"
	"tridentsp/internal/telemetry"
	"tridentsp/internal/workloads"
)

// Sampled chains recycle worker machines (DESIGN §15): a machine that has
// just run one grid slot's window is seeded again from the startup snapshot
// S₀ for the next slot instead of being rebuilt. These tests pin what makes
// that sound and what it saves: a used machine, once seeded, behaves exactly
// as a freshly built one seeded from the same bytes, and seeding it costs a
// fraction of building one.

// chainOutcome is everything one detailed window on a seeded machine
// reports: the machine's Results after it, the per-tier instruction deltas,
// the telemetry it emitted (semantic and engine), and the full machine
// state it leaves.
type chainOutcome struct {
	res    Results
	tiers  [numTiers]uint64
	events []telemetry.Event
	state  []byte
}

// seedAndRun seeds sys the way a sampled chain does — S₀, then the slot's
// region-of-interest snapshot, then the warm-up tail functionally — and
// runs one detailed window of n instructions.
func seedAndRun(t *testing.T, sys *System, s0, roi []byte, warm, n uint64) chainOutcome {
	t.Helper()
	if err := sys.RestoreState(s0); err != nil {
		t.Fatalf("RestoreState(S₀): %v", err)
	}
	if err := sys.RestoreROI(roi); err != nil {
		t.Fatalf("RestoreROI: %v", err)
	}
	sys.FastForward(warm, warm)
	tel := sys.Telemetry()
	mark := tel.Emitted()
	s, b, j := sys.TierInstrs()
	sys.Run(sys.OrigInstrs() + n)
	if !sys.Quiesce(1_000_000) {
		t.Fatal("window did not quiesce")
	}
	s2, b2, j2 := sys.TierInstrs()
	var out chainOutcome
	out.res = sys.Results()
	out.tiers = [numTiers]uint64{s2 - s, b2 - b, j2 - j}
	for _, ev := range tel.AllEvents() {
		if ev.Seq >= mark {
			out.events = append(out.events, ev)
		}
	}
	state, err := sys.SaveState()
	if err != nil {
		t.Fatal(err)
	}
	out.state = state
	return out
}

// TestRecycledMachineMatchesFresh seeds slot B's chain into a fresh machine
// and into a machine that has just run slot A's window, and requires the
// two windows to agree on Results, tier deltas, telemetry and post-window
// state bytes. A restore that left the previous chain's compiled traces in
// the code cache fails here on the tier split.
func TestRecycledMachineMatchesFresh(t *testing.T) {
	const (
		startup = 300_000
		warm    = 50_000
		window  = 100_000
		slotA   = 500_000
		slotB   = 800_000
	)
	chaosCfg := func(c Config) Config {
		sched, err := chaos.NewSchedule(chaos.PresetEvictionStorm, 7, 4_000_000)
		if err != nil {
			t.Fatal(err)
		}
		c.Chaos = sched
		return c
	}
	selector := DefaultConfig()
	selector.HW = HWSelector
	configs := []struct {
		name string
		cfg  Config
	}{
		{"default", DefaultConfig()},
		{"selector", selector},
		{"eviction-storm", chaosCfg(DefaultConfig())},
	}
	for _, bench := range []string{"mcf", "vis", "dot"} {
		bm, _ := workloads.ByName(bench)
		prog := bm.Build(workloads.ScaleSmall)
		for _, c := range configs {
			cfg := c.cfg
			cfg.Telemetry = &telemetry.Options{}
			t.Run(bench+"/"+c.name, func(t *testing.T) {
				master := NewSystem(cfg, prog)
				master.Run(startup)
				s0, err := master.SaveState()
				if err != nil {
					t.Fatal(err)
				}
				master.FastForward(slotA-warm-master.Progress(), 0)
				roiA := master.SaveROI()
				master.FastForward(slotB-warm-master.Progress(), 0)
				roiB := master.SaveROI()

				want := seedAndRun(t, NewSystem(cfg, prog), s0, roiB, warm, window)
				used := NewSystem(cfg, prog)
				seedAndRun(t, used, s0, roiA, warm, window)
				got := seedAndRun(t, used, s0, roiB, warm, window)

				if got.res != want.res {
					t.Errorf("Results differ\nrecycled: %+v\nfresh:    %+v", got.res, want.res)
				}
				if got.tiers != want.tiers {
					t.Errorf("tier deltas (slow, batch, jit) differ: recycled %v, fresh %v",
						got.tiers, want.tiers)
				}
				if !reflect.DeepEqual(got.events, want.events) {
					t.Errorf("telemetry differs: recycled %d events, fresh %d",
						len(got.events), len(want.events))
				}
				if !bytes.Equal(got.state, want.state) {
					t.Errorf("post-window state differs (%d vs %d bytes)", len(got.state), len(want.state))
				}
			})
		}
	}
}

// TestRestoreIntoUsedMachineBytes: re-seeding a machine that has run a
// window — the sampled chain's steady state — allocates under 160 KiB per
// RestoreState(S₀). Building a fresh machine and restoring into it costs
// about ten times that. S₀ is cut after the sampled schedule's
// 1.5M-instruction startup prefix at full scale.
func TestRestoreIntoUsedMachineBytes(t *testing.T) {
	const (
		limit  = 160 << 10
		window = 150_000
		runs   = 5
	)
	cfg := DefaultConfig()
	for _, name := range []string{"mcf", "vis"} {
		bm, _ := workloads.ByName(name)
		prog := bm.Build(workloads.ScaleFull)
		sys := NewSystem(cfg, prog)
		sys.Run(1_500_000)
		s0, err := sys.SaveState()
		if err != nil {
			t.Fatal(err)
		}
		used := NewSystem(cfg, prog)
		var total uint64
		var ms runtime.MemStats
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		for i := 0; i <= runs; i++ {
			used.Run(used.OrigInstrs() + window)
			used.Quiesce(1_000_000)
			runtime.ReadMemStats(&ms)
			before := ms.TotalAlloc
			if err := used.RestoreState(s0); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&ms)
			if i > 0 { // the first restore lands in a freshly built machine
				total += ms.TotalAlloc - before
			}
		}
		per := total / runs
		t.Logf("%s: RestoreState(S₀) into a used machine: %d bytes", name, per)
		if per >= limit {
			t.Errorf("%s: RestoreState(S₀) into a used machine allocated %d bytes, want < %d",
				name, per, limit)
		}
	}
}
