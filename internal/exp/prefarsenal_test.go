package exp

import (
	"reflect"
	"testing"

	"tridentsp/internal/chaos"
	"tridentsp/internal/core"
	"tridentsp/internal/telemetry"
	"tridentsp/internal/workloads"
)

// prefArsenalOptions keeps the golden runs test-sized: the chaos rows rerun
// the full Trident machine in complete detail, so the table is the most
// expensive per-instruction figure in the registry.
func prefArsenalOptions() Options {
	return Options{
		Scale:      workloads.ScaleSmall,
		Instrs:     150_000,
		Benchmarks: []string{"swim", "mcf"},
	}
}

// TestPrefArsenalJobsDeterminism is the golden-table leg for the arsenal
// figure: byte-identical rendering at any -j, including the chaos rows
// (which run outside submitRun on private Systems).
func TestPrefArsenalJobsDeterminism(t *testing.T) {
	serial, par := prefArsenalOptions(), prefArsenalOptions()
	serial.Jobs = 1
	par.Jobs = 4
	s := PrefArsenal(serial).Render()
	p := PrefArsenal(par).Render()
	if s != p {
		t.Fatalf("prefarsenal output differs between -j1 and -j4:\n-- j1 --\n%s-- j4 --\n%s", s, p)
	}
}

// TestPrefArsenalSampledDeterminism: under -sample the benchmark rows go
// through the interval scheduler while the chaos rows stay exact, and the
// whole table must still be identical at any -sample-jobs.
func TestPrefArsenalSampledDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the arsenal figure twice under sampling")
	}
	o := prefArsenalOptions()
	o.Instrs = 600_000
	o.Benchmarks = []string{"mcf"}
	o.Sampled = true
	o.SampleJobs = 1
	one := PrefArsenal(o)
	o.SampleJobs = 2
	two := PrefArsenal(o)
	if !reflect.DeepEqual(one, two) {
		t.Fatalf("prefarsenal table differs across -sample-jobs\n-- jobs=1 --\n%s-- jobs=2 --\n%s",
			one.Render(), two.Render())
	}
}

// TestSelectorReconvergesAfterChaos is the chaos-preset interaction test:
// under the eviction-storm and workload-shift presets the selector must keep
// probing and keep crowning winners after the last injected fault — the
// figure's premise that a policy choice invalidated by the storm gets
// revisited, not ridden to the end of the run.
func TestSelectorReconvergesAfterChaos(t *testing.T) {
	bm, ok := workloads.ByName("mcf")
	if !ok {
		t.Fatal("mcf missing from the workload suite")
	}
	for _, pr := range []struct {
		name   string
		preset chaos.Preset
	}{
		{"eviction-storm", chaos.PresetEvictionStorm},
		{"workload-shift", chaos.PresetWorkloadShift},
	} {
		t.Run(pr.name, func(t *testing.T) {
			// A short fault horizon up front leaves the back half of the run
			// fault-free, so "decisions after the storm" is well defined.
			sched, err := chaos.NewSchedule(pr.preset, 1, 100_000)
			if err != nil {
				t.Fatalf("NewSchedule: %v", err)
			}
			last := sched.Events[len(sched.Events)-1]
			stormEnd := last.At + last.Duration

			cfg := core.DefaultConfig()
			cfg.HW = core.HWSelector
			cfg.SelectorProbe = 500
			cfg.SelectorExploit = 2
			cfg.Chaos = sched
			cfg.Telemetry = &telemetry.Options{}
			sys := core.NewSystem(cfg, bm.Build(workloads.ScaleSmall))
			res := sys.Run(400_000)
			if res.Aborted != "" {
				t.Fatalf("run aborted: %s", res.Aborted)
			}
			if res.Cycles <= stormEnd {
				t.Fatalf("run ended at cycle %d, inside the fault window (ends %d) — no fault-free tail to check",
					res.Cycles, stormEnd)
			}

			// Each decision is a hwpref-switch event; Arg2 is 1 for an
			// exploit winner.
			var after, exploit int
			for _, e := range sys.Telemetry().Events() {
				if e.Kind == telemetry.KindHWPrefSwitch && e.Cycle > stormEnd {
					after++
					if e.Arg2 == 1 {
						exploit++
					}
				}
			}
			if after == 0 || exploit == 0 {
				t.Fatalf("selector made %d decisions (%d exploit) after the last fault at cycle %d — not re-converging",
					after, exploit, stormEnd)
			}
			if r := sys.HWPref().Rounds(); r < 2 {
				t.Fatalf("only %d probe rounds in a %d-cycle run", r, res.Cycles)
			}
		})
	}
}
