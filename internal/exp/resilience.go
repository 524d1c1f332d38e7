package exp

import (
	"fmt"

	"tridentsp/internal/chaos"
	"tridentsp/internal/core"
)

// Resilience is not in the paper: it quantifies how the self-repairing
// controller behaves when the environment misbehaves. Each benchmark runs
// under three fault-injection presets (memory-latency phase shifts, DLT and
// watch-table eviction storms, helper-thread preemption windows) with the
// invariant watchdog attached, and the run is sampled in fixed instruction
// windows to measure the deepest IPC dip relative to the fault-free run and
// how long the machine takes to climb back within 90% of it.
func Resilience(o Options) Table {
	o = o.withDefaults()
	t := Table{
		ID:      "resilience",
		Title:   "Self-repair resilience under deterministic fault injection",
		Paper:   "not in the paper; robustness evaluation of the self-repairing controller",
		Columns: []string{"base ipc", "chaos ipc", "dip %", "recov kcyc", "faults", "violations"},
		Note: "dip = deepest windowed-IPC drop vs the fault-free run; " +
			"recovery = cycles from the first fault until windowed IPC stays above 90% of fault-free",
	}
	presets := []struct {
		short  string
		preset chaos.Preset
	}{
		{"latency", chaos.PresetLatencyPhase},
		{"evict", chaos.PresetEvictionStorm},
		{"preempt", chaos.PresetHelperPreemption},
	}
	// Windowed sampling via resumable Run calls; 50 windows resolves dips a
	// few percent of the run long without drowning short QuickOptions runs.
	const windows = 50
	step := o.Instrs / windows
	if step == 0 {
		step = 1
	}
	p := newPool(o)
	suite := o.suite()
	cfg := core.DefaultConfig()
	o.applyEngine(&cfg)
	// Phase 1: fault-free base runs. The chaos rows need the base IPC while
	// they execute, and a pool task must not wait on another task's future
	// (see pool.go), so the bases are fully resolved before the rows are
	// submitted.
	baseFuts := make([]*task[core.Results], len(suite))
	for i, bm := range suite {
		baseFuts[i] = p.submitRun(bm, variant{cfg: cfg}, o)
	}
	bases := make([]core.Results, len(suite))
	baseOK := make([]bool, len(suite))
	for i := range suite {
		baseOK[i] = baseFuts[i].ok()
		bases[i] = baseFuts[i].wait()
	}
	// Phase 2: one task per (benchmark, preset) row. A row whose base run
	// failed is holed immediately (nil future) — its dip and recovery are
	// meaningless without the fault-free reference.
	type rowFut struct {
		label string
		fut   *task[Row]
	}
	rows := make([]rowFut, 0, len(suite)*len(presets))
	for i, bm := range suite {
		bm, base := bm, bases[i]
		for _, pr := range presets {
			pr := pr
			label := bm.Name + "/" + pr.short
			if !baseOK[i] {
				rows = append(rows, rowFut{label: label})
				continue
			}
			rows = append(rows, rowFut{label: label, fut: submit(p, label, func() Row {
				// Horizon in cycles: twice the instruction budget covers the
				// whole run down to IPC 0.5; later events simply never fire.
				sched, err := chaos.NewSchedule(pr.preset, 1, int64(o.Instrs)*2)
				if err != nil {
					panic(fmt.Sprintf("exp: resilience schedule: %v", err))
				}
				ccfg := cfg
				ccfg.Chaos = sched
				sys := core.NewSystem(ccfg, bm.Build(o.Scale))

				var (
					prevCycles int64
					prevInstrs uint64
					prevFaults uint64
					faultAt    int64 = -1 // window start when the first fault landed
					dip        float64
					badUntil   int64 // end cycle of the last sub-90% window
					final      core.Results
				)
				for target := step; ; target += step {
					if target > o.Instrs {
						target = o.Instrs
					}
					final = sys.Run(target)
					if dc := final.Cycles - prevCycles; dc > 0 {
						ipc := float64(final.OrigInstrs-prevInstrs) / float64(dc)
						if faultAt < 0 && final.ChaosFaults > prevFaults {
							faultAt = prevCycles
						}
						if faultAt >= 0 && base.IPC() > 0 {
							if d := 1 - ipc/base.IPC(); d > dip {
								dip = d
							}
							if ipc < 0.9*base.IPC() {
								badUntil = final.Cycles
							}
						}
					}
					prevCycles, prevInstrs, prevFaults = final.Cycles, final.OrigInstrs, final.ChaosFaults
					if target == o.Instrs || final.Aborted != "" {
						break
					}
				}
				recov := 0.0
				if faultAt >= 0 && badUntil > faultAt {
					recov = float64(badUntil-faultAt) / 1000
				}
				return Row{
					Label: bm.Name + "/" + pr.short,
					Cells: []float64{
						base.IPC(), final.IPC(), 100 * dip, recov,
						float64(final.ChaosFaults), float64(final.InvariantViolations),
					},
				}
			})})
		}
	}
	for _, rf := range rows {
		if rf.fut == nil || !rf.fut.ok() {
			t.Rows = append(t.Rows, Row{Label: rf.label, Cells: nanCells(len(t.Columns))})
			continue
		}
		t.Rows = append(t.Rows, rf.fut.wait())
	}
	meanRow(&t)
	t.Failures = p.manifest()
	return t
}
