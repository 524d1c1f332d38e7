package exp

import (
	"fmt"
	"math"

	"tridentsp/internal/chaos"
	"tridentsp/internal/core"
)

// PrefArsenal is not in the paper: it compares the internal/hwpref arsenal
// backends (DESIGN §16) against each other and against the paper's 8x8
// stream buffers, all as pure hardware prefetchers (no Trident), and shows
// the online per-phase selector holding its own against the best static
// choice. A second block of rows reruns a benchmark subset under the two
// cache-hostile fault presets to show the selector re-converging instead of
// sticking with a backend the storm invalidated.
func PrefArsenal(o Options) Table {
	o = o.withDefaults()
	t := Table{
		ID:      "prefarsenal",
		Title:   "Prefetcher arsenal: static backends vs the per-phase selector",
		Paper:   "not in the paper; POWER7-style adaptive prefetch-policy selection",
		Columns: []string{"IPC 8x8", "next-line", "stride", "best-off", "ghb", "selector"},
		Note: "benchmark rows are hardware prefetching only (no Trident); " +
			"the geomean covers them. The preset rows rerun the full Trident " +
			"machine in full detail with fault injection",
	}
	configs := []core.HWPrefetch{
		core.HW8x8, core.HWNextLine, core.HWStride,
		core.HWBestOffset, core.HWGHB, core.HWSelector,
	}
	p := newPool(o)
	suite := o.suite()

	// Benchmark rows: one run per (benchmark, backend), submitted up front
	// and assembled in submission order.
	runs := make([][]*task[core.Results], len(suite))
	for i, bm := range suite {
		runs[i] = make([]*task[core.Results], len(configs))
		for j, hw := range configs {
			runs[i][j] = p.submitRun(bm, baseline(hw), o)
		}
	}

	// Chaos rows: the selector's value is adapting when the environment
	// shifts, so a benchmark subset reruns every backend under the
	// eviction-storm and workload-shift presets — on the full Trident
	// machine, since eviction-storm's faults all target Trident structures.
	// Chaos needs every instruction simulated in detail (the CLI rejects
	// -sample -chaos for the same reason), so these rows bypass the sampled
	// path.
	chaosPresets := []struct {
		short  string
		preset chaos.Preset
	}{
		{"evict", chaos.PresetEvictionStorm},
		{"shift", chaos.PresetWorkloadShift},
	}
	chaosSuite := suite
	if len(chaosSuite) > 3 {
		chaosSuite = chaosSuite[:3]
	}
	type chaosRow struct {
		label string
		futs  []*task[core.Results]
	}
	var crows []chaosRow
	for _, bm := range chaosSuite {
		bm := bm
		for _, pr := range chaosPresets {
			pr := pr
			cr := chaosRow{label: bm.Name + "/" + pr.short, futs: make([]*task[core.Results], len(configs))}
			for j, hw := range configs {
				hw := hw
				label := fmt.Sprintf("%s %s/%s", bm.Name, hw, pr.short)
				cr.futs[j] = submit(p, label, func() core.Results {
					sched, err := chaos.NewSchedule(pr.preset, 1, int64(o.Instrs)*2)
					if err != nil {
						panic(fmt.Sprintf("exp: prefarsenal schedule: %v", err))
					}
					cfg := core.DefaultConfig()
					cfg.HW = hw
					cfg.Chaos = sched
					o.applyEngine(&cfg)
					return core.NewSystem(cfg, bm.Build(o.Scale)).Run(o.Instrs)
				})
			}
			crows = append(crows, cr)
		}
	}

	for i, bm := range suite {
		t.Rows = append(t.Rows, ipcRow(bm.Name, runs[i]))
	}
	geomeanRow(&t)
	for _, cr := range crows {
		t.Rows = append(t.Rows, ipcRow(cr.label, cr.futs))
	}
	t.Failures = p.manifest()
	return t
}

// ipcRow assembles one table row of IPCs, holing only the cells whose run
// failed — an arsenal row stays useful even if one backend times out.
func ipcRow(label string, futs []*task[core.Results]) Row {
	cells := make([]float64, len(futs))
	for j, f := range futs {
		if !f.ok() {
			cells[j] = math.NaN()
			continue
		}
		cells[j] = f.wait().IPC()
	}
	return Row{Label: label, Cells: cells}
}

// geomeanRow appends a geometric-mean row over the existing rows (IPC
// ratios compose multiplicatively, so the geomean is the honest average for
// cross-backend comparison). Holes are skipped per column; a column with no
// positive survivors stays a hole.
func geomeanRow(t *Table) {
	if len(t.Rows) == 0 {
		return
	}
	n := len(t.Rows[0].Cells)
	sums := make([]float64, n)
	counts := make([]int, n)
	for _, r := range t.Rows {
		for i, v := range r.Cells {
			if !math.IsNaN(v) && v > 0 {
				sums[i] += math.Log(v)
				counts[i]++
			}
		}
	}
	cells := make([]float64, n)
	for i := range sums {
		if counts[i] == 0 {
			cells[i] = math.NaN()
		} else {
			cells[i] = math.Exp(sums[i] / float64(counts[i]))
		}
	}
	t.Rows = append(t.Rows, Row{Label: "geomean", Cells: cells})
}
