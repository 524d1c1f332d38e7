package exp

import (
	"strings"
	"testing"

	"tridentsp/internal/workloads"
)

// TestSuiteFiltering: a benchmark list resolves in the caller's order, and
// an unknown name panics with that name instead of silently shortening
// every table.
func TestSuiteFiltering(t *testing.T) {
	suite := Options{Benchmarks: []string{"mcf", "swim"}}.suite()
	if len(suite) != 2 || suite[0].Name != "mcf" || suite[1].Name != "swim" {
		t.Fatalf("suite = %v, want [mcf swim]", suite)
	}
	defer func() {
		r := recover()
		if msg, _ := r.(string); !strings.Contains(msg, `"nonesuch"`) {
			t.Fatalf("unknown benchmark: recovered %v, want a panic naming \"nonesuch\"", r)
		}
	}()
	Options{Benchmarks: []string{"mcf", "nonesuch", "swim"}}.suite()
	t.Fatal("suite accepted an unknown benchmark")
}

func TestWithDefaultsPreservesExplicit(t *testing.T) {
	o := Options{Scale: workloads.ScaleSmall, Instrs: 123}.withDefaults()
	if o.Instrs != 123 || o.Scale != workloads.ScaleSmall {
		t.Fatalf("defaults clobbered explicit options: %+v", o)
	}
}

func TestRenderAlignsColumns(t *testing.T) {
	tbl := Table{
		ID:      "x",
		Title:   "t",
		Columns: []string{"aaa", "bbbb"},
		Rows: []Row{
			{Label: "short", Cells: []float64{1, 2}},
			{Label: "muchlonger", Cells: []float64{3.25, 4.5}},
		},
	}
	lines := strings.Split(strings.TrimRight(tbl.Render(), "\n"), "\n")
	// Header + 2 rows after the title line.
	if len(lines) != 4 {
		t.Fatalf("lines = %d: %q", len(lines), lines)
	}
	if len(lines[2]) != len(lines[3]) {
		t.Fatalf("rows not aligned: %d vs %d chars", len(lines[2]), len(lines[3]))
	}
	if !strings.Contains(lines[3], "3.250") || !strings.Contains(lines[3], "4.500") {
		t.Fatalf("cell formatting: %q", lines[3])
	}
}

func TestFigure3And8Quick(t *testing.T) {
	o := QuickOptions()
	f3 := Figure3(o)
	if len(f3.Rows) != len(o.suite())+1 {
		t.Fatalf("fig3 rows = %d", len(f3.Rows))
	}
	avg := f3.Rows[len(f3.Rows)-1]
	if avg.Cells[0] < 0 || avg.Cells[0] > 50 {
		t.Fatalf("helper%% = %.2f implausible", avg.Cells[0])
	}
	f8 := Figure8(o)
	if len(f8.Columns) != 5 {
		t.Fatalf("fig8 columns = %d", len(f8.Columns))
	}
}

func TestAblationsQuick(t *testing.T) {
	tbl := Ablations(Options{
		Scale:      workloads.ScaleSmall,
		Instrs:     250_000,
		Benchmarks: []string{"mcf"},
	})
	if len(tbl.Columns) != 4 {
		t.Fatalf("ablation columns = %d", len(tbl.Columns))
	}
	row := tbl.Rows[0]
	// Every variant must produce a sane positive speedup value.
	for i, c := range row.Cells {
		if c <= 0 || c > 20 {
			t.Fatalf("variant %s speedup %.3f implausible", tbl.Columns[i], c)
		}
	}
}

func TestExtraCacheQuick(t *testing.T) {
	tbl := ExtraCache(Options{
		Scale:      workloads.ScaleSmall,
		Instrs:     250_000,
		Benchmarks: []string{"swim"},
	})
	avg := tbl.Rows[len(tbl.Rows)-1]
	// The gain must be tiny in either direction (the paper's point).
	if avg.Cells[2] > 10 || avg.Cells[2] < -10 {
		t.Fatalf("extra-cache gain %.2f%% implausible", avg.Cells[2])
	}
}

func TestFigure9Quick(t *testing.T) {
	tbl := Figure9(Options{
		Scale:      workloads.ScaleSmall,
		Instrs:     300_000,
		Benchmarks: []string{"swim", "mcf"},
	})
	for _, r := range tbl.Rows {
		for _, c := range r.Cells {
			if c <= 0 {
				t.Fatalf("%s: nonpositive speedup", r.Label)
			}
		}
	}
}
