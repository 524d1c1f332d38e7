package exp

import (
	"fmt"
	"math"

	"tridentsp/internal/core"
	"tridentsp/internal/memsys"
	"tridentsp/internal/workloads"
)

// Every per-benchmark figure is a header, a list of machine variants, and
// one of two assembly helpers. rowsOf turns each benchmark's results into a
// row through a cell formula; speedupsOf reports each variant's speedup
// over the 8x8 hardware baseline. Both submit all (benchmark, variant) runs
// to the pool first, then await them in submission order while assembling
// rows, so Render() output is independent of how the pool interleaves the
// runs and the failure manifest lists every failed run once, in submission
// order.

// A variant is one machine configuration a table runs on every benchmark.
type variant struct {
	cfg core.Config
	// name tells apart runs whose HW/SW tag is the same within a table; it
	// suffixes the run's manifest label.
	name string
}

// tweaked returns the default self-repairing machine with f applied.
func tweaked(name string, f func(*core.Config)) variant {
	cfg := core.DefaultConfig()
	f(&cfg)
	return variant{cfg: cfg, name: name}
}

// submitAll submits every variant on every benchmark, benchmark-major.
func submitAll(o Options, vs []variant) (*pool, []workloads.Benchmark, [][]*task[core.Results]) {
	o = o.withDefaults()
	p := newPool(o)
	suite := o.suite()
	runs := make([][]*task[core.Results], len(suite))
	for i, bm := range suite {
		for _, v := range vs {
			runs[i] = append(runs[i], p.submitRun(bm, v, o))
		}
	}
	return p, suite, runs
}

// rowsOf fills t with one row per benchmark, computed by cells from the
// benchmark's results in variant order. A benchmark with any failed run
// gets a row of holes. The mean row and the failure manifest close the
// table.
func rowsOf(o Options, t Table, vs []variant, cells func(r []core.Results) []float64) Table {
	p, suite, runs := submitAll(o, vs)
	for i, bm := range suite {
		row := Row{Label: bm.Name, Cells: nanCells(len(t.Columns))}
		if allOK(runs[i]...) {
			r := make([]core.Results, len(vs))
			for j, f := range runs[i] {
				r[j] = f.wait()
			}
			row.Cells = cells(r)
		}
		t.Rows = append(t.Rows, row)
	}
	meanRow(&t)
	t.Failures = p.manifest()
	return t
}

// speedupsOf fills t with each variant's speedup over the 8x8 hardware
// baseline: one column per variant, one row per benchmark, then the mean
// row and the failure manifest. A cell is a hole if either run it reads
// failed.
func speedupsOf(o Options, t Table, vs []variant) Table {
	vs = append([]variant{baseline(core.HW8x8)}, vs...)
	p, suite, runs := submitAll(o, vs)
	for i, bm := range suite {
		allOK(runs[i]...) // await the whole row so the manifest keeps submission order
		base := runs[i][0]
		row := Row{Label: bm.Name}
		for _, f := range runs[i][1:] {
			c := math.NaN()
			if base.ok() && f.ok() {
				c = core.Speedup(f.wait(), base.wait())
			}
			row.Cells = append(row.Cells, c)
		}
		t.Rows = append(t.Rows, row)
	}
	meanRow(&t)
	t.Failures = p.manifest()
	return t
}

// baseline is the Trident-less machine with the given stream buffers.
func baseline(hw core.HWPrefetch) variant { return variant{cfg: core.BaselineConfig(hw)} }

// Figure2 reproduces the baseline comparison: IPC without prefetching and
// speedups of the 4x4 and 8x8 stream-buffer configurations (paper: 35% and
// 40% average).
func Figure2(o Options) Table {
	return rowsOf(o, Table{
		ID:      "fig2",
		Title:   "Baseline SMT performance: stream buffers vs none",
		Paper:   "4x4 averages ~1.35x, 8x8 ~1.40x over no prefetching",
		Columns: []string{"IPC none", "IPC 4x4", "IPC 8x8", "spd 4x4", "spd 8x8"},
	}, []variant{baseline(core.HWNone), baseline(core.HW4x4), baseline(core.HW8x8)},
		func(r []core.Results) []float64 {
			none, hw44, hw88 := r[0], r[1], r[2]
			return []float64{
				none.IPC(), hw44.IPC(), hw88.IPC(),
				core.Speedup(hw44, none), core.Speedup(hw88, none),
			}
		})
}

// Overhead reproduces §5.1: the optimizer runs (forming and optimizing
// traces, inserting prefetches) but never links, so the only cost is
// helper-thread interference. The paper reports 0.6% total.
func Overhead(o Options) Table {
	return rowsOf(o, Table{
		ID:      "overhead",
		Title:   "Main-thread slowdown from a linking-disabled optimizer",
		Paper:   "total cost ~0.6%, under 1% with self-repairing",
		Columns: []string{"IPC base", "IPC unlinked", "overhead %", "helper %"},
	}, []variant{
		baseline(core.HW8x8),
		tweaked("unlinked", func(c *core.Config) { c.LinkTraces = false }),
	}, func(r []core.Results) []float64 {
		base, unlinked := r[0], r[1]
		ovh := 0.0
		if unlinked.IPC() > 0 {
			ovh = (base.IPC()/unlinked.IPC() - 1) * 100
		}
		return []float64{base.IPC(), unlinked.IPC(), ovh, 100 * unlinked.HelperActiveFraction()}
	})
}

// Figure3 reproduces the helper-thread occupancy measurement (paper: 2.2%
// of total cycles on average, at most ~25% more with self-repairing).
func Figure3(o Options) Table {
	return rowsOf(o, Table{
		ID:      "fig3",
		Title:   "Optimization-thread active cycles relative to execution",
		Paper:   "average ~2.2% of cycles",
		Columns: []string{"helper %", "invocations", "traces"},
	}, []variant{{cfg: core.DefaultConfig()}}, func(r []core.Results) []float64 {
		return []float64{
			100 * r[0].HelperActiveFraction(),
			float64(r[0].HelperInvocations),
			float64(r[0].TracesFormed),
		}
	})
}

// Figure4 reproduces the miss-coverage measurement: the share of L1 misses
// inside hot traces (paper: >85%) and the share from loads the prefetcher
// targets (paper: ~55%; dot and parser low, gap high within its traces).
func Figure4(o Options) Table {
	return rowsOf(o, Table{
		ID:      "fig4",
		Title:   "Percentage of load misses covered by traces and prefetches",
		Paper:   "~85% of misses inside hot traces; ~55% prefetchable",
		Columns: []string{"in-trace %", "covered %"},
	}, []variant{{cfg: core.DefaultConfig()}}, func(r []core.Results) []float64 {
		return []float64{100 * r[0].TraceMissCoverage(), 100 * r[0].PrefetchMissCoverage()}
	})
}

// Figure5 reproduces the headline result: speedups of basic, whole-object,
// and self-repairing software prefetching over the 8x8 hardware baseline
// (paper: ~11%, intermediate, ~23%; applu/facerec/fma3d gain nothing from
// repair).
func Figure5(o Options) Table {
	var vs []variant
	for _, sw := range []core.SWMode{core.SWBasic, core.SWWholeObject, core.SWSelfRepair} {
		vs = append(vs, tweaked("", func(c *core.Config) { c.SW = sw }))
	}
	return speedupsOf(o, Table{
		ID:      "fig5",
		Title:   "Software prefetching speedup over hardware prefetching",
		Paper:   "basic ~1.11x, whole-object between, self-repairing ~1.23x",
		Columns: []string{"basic", "whole-obj", "self-repair"},
	}, vs)
}

// Figure6 reproduces the dynamic-load breakdown under self-repairing
// prefetching (paper: misses due to prefetching rare, few partial prefetch
// hits).
func Figure6(o Options) Table {
	return rowsOf(o, Table{
		ID:    "fig6",
		Title: "Dynamic load outcomes (% of all loads)",
		Paper: "prefetch-displacement misses rare; low partial prefetch hits",
		Columns: []string{
			"hit", "hit-pf", "part-pf", "part-dem", "miss", "miss-pf",
		},
	}, []variant{{cfg: core.DefaultConfig()}}, func(r []core.Results) []float64 {
		total := float64(r[0].Mem.Loads)
		if total == 0 {
			total = 1
		}
		cells := make([]float64, memsys.NumOutcomes)
		for out := range cells {
			cells[out] = 100 * float64(r[0].Mem.ByOutcome[out]) / total
		}
		return cells
	})
}

// Figure7 reproduces the sensitivity sweep over load-monitoring window
// sizes (128/256/512) and miss-rate thresholds (1/3/6/12%), reporting the
// average self-repairing speedup over the hardware baseline for each
// combination (paper: 256 accesses with 3% — 8 misses — works best).
func Figure7(o Options) Table {
	t := Table{
		ID:      "fig7",
		Title:   "Average speedup by monitoring window and miss threshold",
		Paper:   "best at window 256, threshold 3% (8 misses)",
		Columns: []string{"1%", "3%", "6%", "12%"},
	}
	windows := []uint32{128, 256, 512}
	pcts := []uint32{1, 3, 6, 12}
	var vs []variant
	for _, window := range windows {
		for _, pct := range pcts {
			vs = append(vs, tweaked(fmt.Sprintf("window-%d/%d%%", window, pct), func(c *core.Config) {
				c.DLT.WindowSize = window
				c.DLT.MissThreshold = max(window*pct/100, 1)
			}))
		}
	}
	// Each grid cell is a suite-mean speedup: the sweep's mean row, read
	// one window at a time.
	sweep := speedupsOf(o, Table{}, vs)
	avg := sweep.Rows[len(sweep.Rows)-1].Cells
	for w, window := range windows {
		t.Rows = append(t.Rows, Row{
			Label: fmt.Sprintf("window %d", window),
			Cells: avg[w*len(pcts) : (w+1)*len(pcts)],
		})
	}
	t.Failures = sweep.Failures
	return t
}

// Figure8 reproduces the DLT-size sensitivity sweep (paper: most programs
// near-flat; dot and parser want a bigger table; 1024 entries suffice).
func Figure8(o Options) Table {
	var vs []variant
	for _, entries := range []int{128, 256, 512, 1024, 2048} {
		vs = append(vs, tweaked(fmt.Sprintf("dlt-%d", entries), func(c *core.Config) { c.DLT.Entries = entries }))
	}
	return speedupsOf(o, Table{
		ID:      "fig8",
		Title:   "Average speedup by DLT size",
		Paper:   "slight growth with size; 1024 entries enough",
		Columns: []string{"128", "256", "512", "1024", "2048"},
	}, vs)
}

// ExtraCache reproduces the §5.4 control: spending the DLT and watch-table
// bits on extra L1 capacity instead (paper: a mere 0.8% gain).
func ExtraCache(o Options) Table {
	// The DLT (1024 entries x ~20B) plus watch table is ~20KB of state.
	bigL1 := baseline(core.HW8x8)
	bigL1.cfg.Mem.L1 = memsys.CacheConfig{SizeBytes: 84 << 10, Assoc: 2, Latency: 3}
	bigL1.name = "L1-84KB"
	return rowsOf(o, Table{
		ID:      "extracache",
		Title:   "Trident hardware budget spent as extra L1 capacity",
		Paper:   "~0.8% over the baseline",
		Columns: []string{"IPC 64KB", "IPC +20KB", "gain %"},
	}, []variant{baseline(core.HW8x8), bigL1}, func(r []core.Results) []float64 {
		base, big := r[0], r[1]
		return []float64{base.IPC(), big.IPC(), (core.Speedup(big, base) - 1) * 100}
	})
}

// Figure9 reproduces the software-vs-hardware comparison: each alone over
// the no-prefetch baseline (paper: software ~11% ahead on average; hardware
// wins on the short-stride codes equake and swim; dot moderate).
func Figure9(o Options) Table {
	return rowsOf(o, Table{
		ID:      "fig9",
		Title:   "Hardware-only vs software-only prefetching speedup",
		Paper:   "software-only averages ~11% above hardware-only",
		Columns: []string{"hw-only", "sw-only"},
	}, []variant{
		baseline(core.HWNone),
		baseline(core.HW8x8),
		tweaked("", func(c *core.Config) { c.HW = core.HWNone }),
	}, func(r []core.Results) []float64 {
		none, hw, sw := r[0], r[1], r[2]
		return []float64{core.Speedup(hw, none), core.Speedup(sw, none)}
	})
}
