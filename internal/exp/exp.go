// Package exp regenerates every table and figure of the paper's evaluation
// (§5): the stream-buffer baseline comparison (Figure 2), optimizer
// overhead (§5.1), helper-thread occupancy (Figure 3), miss coverage
// (Figure 4), the three software prefetching schemes (Figure 5), the load-
// outcome breakdown (Figure 6), the sensitivity sweeps (Figures 7 and 8),
// the extra-cache control experiment (§5.4), and software-vs-hardware
// prefetching (Figure 9).
package exp

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"

	"tridentsp/internal/core"
	"tridentsp/internal/exp/render"
	"tridentsp/internal/workloads"
)

// Options scales an experiment run.
type Options struct {
	// Scale selects working-set sizes (default ScaleFull, like the paper's
	// memory-bound inputs).
	Scale workloads.Scale
	// Instrs is the per-run instruction budget. The paper simulates 100M
	// instructions; the default here is 5M, which reaches prefetch-distance
	// steady state on these kernels while keeping the full suite runnable
	// in minutes.
	Instrs uint64
	// Benchmarks restricts the suite (nil = all 14). Every name must be
	// one the workloads registry knows: an unknown name panics when the
	// experiment runs (matching core.NewSystem on an invalid config — a
	// typo must not quietly shorten the tables).
	Benchmarks []string
	// Jobs bounds how many simulator runs execute concurrently; 0 or
	// negative selects runtime.NumCPU(). Any value produces byte-identical
	// tables: results are assembled in submission order.
	Jobs int
	// Engine, when non-nil, replaces core.Config.Engine in every run (the
	// reference loop, the batch interpreter, the JIT tier and its
	// threshold). Tables are identical under every engine; the knob exists
	// to prove that.
	Engine *core.Engine
	// Sampled runs every figure under the interval-sampling scheduler
	// (DESIGN §14, §15) and computes cells from the extrapolated Results.
	// Exact mode (the default) is untouched — its tables stay byte-identical.
	Sampled bool
	// SampleJobs bounds concurrent detailed-window chains inside each
	// sampled run (sampling.Options.Jobs); 0 or 1 runs windows one at a
	// time. Estimates are byte-identical at any value. When set above 1
	// with Jobs unset, the pool width defaults to NumCPU/SampleJobs so the
	// nested parallelism does not oversubscribe the host.
	SampleJobs int
	// TaskTimeout bounds one run's wall-clock time; 0 disables the
	// deadline. A timed-out run is abandoned, its cells are holed ("—"),
	// and the failure lands in the table's manifest.
	TaskTimeout time.Duration
}

// withDefaults fills unset options.
func (o Options) withDefaults() Options {
	if o.Instrs == 0 {
		o.Instrs = 5_000_000
	}
	if o.Scale == 0 {
		o.Scale = workloads.ScaleFull
	}
	// Nested-parallelism budget: -j × -sample-jobs worker goroutines run
	// hot, so when the caller asks for intra-run parallelism but leaves the
	// pool width on auto, divide the host between the two levels instead of
	// oversubscribing it.
	if o.Sampled && o.SampleJobs > 1 && o.Jobs <= 0 {
		o.Jobs = max(1, runtime.NumCPU()/o.SampleJobs)
	}
	return o
}

// QuickOptions returns a reduced configuration for tests and benches.
func QuickOptions() Options {
	return Options{
		Scale:      workloads.ScaleSmall,
		Instrs:     300_000,
		Benchmarks: []string{"swim", "mcf", "art"},
	}
}

// suite resolves the benchmark list, panicking on a name the registry
// does not know.
func (o Options) suite() []workloads.Benchmark {
	if len(o.Benchmarks) == 0 {
		return workloads.All()
	}
	var out []workloads.Benchmark
	for _, name := range o.Benchmarks {
		bm, ok := workloads.ByName(name)
		if !ok {
			panic(fmt.Sprintf("exp: unknown benchmark %q", name))
		}
		out = append(out, bm)
	}
	return out
}

// applyEngine applies the engine override, if any, to a run configuration.
func (o Options) applyEngine(cfg *core.Config) {
	if o.Engine != nil {
		cfg.Engine = *o.Engine
	}
}

// run executes one benchmark under one configuration. stop is the pool's
// deadline handle for sampled mode: it closes when the run's deadline
// expires, so nested window chains wind down at the next boundary. Exact
// runs ignore it (pure compute, no cancellation point).
func run(bm workloads.Benchmark, cfg core.Config, o Options, stop <-chan struct{}) core.Results {
	if o.Sampled {
		return sampledRun(bm, cfg, o, stop).Sampled
	}
	o.applyEngine(&cfg)
	p := bm.Build(o.Scale)
	return core.NewSystem(cfg, p).Run(o.Instrs)
}

// Table is a rendered experiment result.
type Table struct {
	ID      string
	Title   string
	Paper   string // what the paper reports, for EXPERIMENTS.md comparison
	Columns []string
	Rows    []Row
	Note    string
	// Failures lists runs that failed every attempt; their cells render as
	// holes ("—"). A non-empty manifest makes cmd/experiments exit nonzero
	// under the strict fail policy.
	Failures []Failure
}

// Row is one table line.
type Row struct {
	Label string
	Cells []float64
}

// layout returns the column widths of the rendered table: a left-aligned
// label gutter followed by one fixed cell width per column.
func (t Table) layout() []int {
	w := make([]int, 1, 1+len(t.Columns))
	w[0] = -12
	for range t.Columns {
		w = append(w, 14)
	}
	return w
}

// Render formats the table as aligned text.
func (t Table) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s: %s ==\n", t.ID, t.Title)
	if t.Paper != "" {
		fmt.Fprintf(&sb, "paper: %s\n", t.Paper)
	}
	widths := t.layout()
	cells := make([]string, 1, len(widths))
	cells[0] = ""
	for _, c := range t.Columns {
		cells = append(cells, c)
	}
	sb.WriteString(render.Columns("", widths, cells...))
	sb.WriteByte('\n')
	for _, r := range t.Rows {
		cells = cells[:1]
		cells[0] = r.Label
		for _, v := range r.Cells {
			if math.IsNaN(v) {
				cells = append(cells, "—") // failed run: an explicit hole
			} else {
				cells = append(cells, fmt.Sprintf("%.3f", v))
			}
		}
		sb.WriteString(render.Columns("", widths, cells...))
		sb.WriteByte('\n')
	}
	if t.Note != "" {
		fmt.Fprintf(&sb, "note: %s\n", t.Note)
	}
	for _, f := range t.Failures {
		fmt.Fprintf(&sb, "FAILED: %s: %s\n", f.Label, f.Err)
	}
	return sb.String()
}

// meanRow appends an arithmetic-mean row over the existing rows. Holes
// (NaN cells from failed runs) are skipped per column, so the average
// covers whatever completed; a column with no survivors stays a hole.
func meanRow(t *Table) {
	if len(t.Rows) == 0 {
		return
	}
	n := len(t.Rows[0].Cells)
	sums := make([]float64, n)
	counts := make([]int, n)
	for _, r := range t.Rows {
		for i, v := range r.Cells {
			if !math.IsNaN(v) {
				sums[i] += v
				counts[i]++
			}
		}
	}
	cells := make([]float64, n)
	for i := range sums {
		if counts[i] == 0 {
			cells[i] = math.NaN()
		} else {
			cells[i] = sums[i] / float64(counts[i])
		}
	}
	t.Rows = append(t.Rows, Row{Label: "average", Cells: cells})
}

// nanCells returns n holes — the row a failed run leaves behind.
func nanCells(n int) []float64 {
	c := make([]float64, n)
	for i := range c {
		c[i] = math.NaN()
	}
	return c
}

// Experiment couples an id to its runner.
type Experiment struct {
	ID    string
	Title string
	Run   func(Options) Table
}

// All returns every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{"fig2", "Baseline performance of hardware stream buffers", Figure2},
		{"overhead", "Optimizer overhead with linking disabled (§5.1)", Overhead},
		{"fig3", "Helper-thread occupancy", Figure3},
		{"fig4", "Load-miss coverage by hot traces and the prefetcher", Figure4},
		{"fig5", "Software prefetching schemes over the HW baseline", Figure5},
		{"fig6", "Dynamic load outcome breakdown", Figure6},
		{"fig7", "Sensitivity to monitoring window and miss threshold", Figure7},
		{"fig8", "Sensitivity to DLT size", Figure8},
		{"extracache", "DLT bits spent on extra L1 capacity instead (§5.4)", ExtraCache},
		{"fig9", "Software vs hardware prefetching alone", Figure9},
		{"ablations", "Design-choice ablations (not in the paper)", Ablations},
		{"resilience", "Self-repair resilience under fault injection (not in the paper)", Resilience},
		{"sampleval", "Sampled-vs-exact validation (not in the paper)", SampleVal},
		{"prefarsenal", "Prefetcher arsenal vs the per-phase selector (not in the paper)", PrefArsenal},
	}
}

// ByID finds an experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}
