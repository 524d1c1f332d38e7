package exp

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"
)

// TestPoolRecoversPanicOnce: a panicking task runs exactly once — a retry
// would replay the same panic — and resolves to a zero value with one
// manifest entry naming the panic.
func TestPoolRecoversPanicOnce(t *testing.T) {
	p := newPool(Options{Jobs: 1})
	calls := 0
	ft := submit(p, "broken", func() int {
		calls++
		panic(fmt.Sprintf("injected failure %d", calls))
	})
	if v := ft.wait(); v != 0 {
		t.Fatalf("wait = %d, want zero value", v)
	}
	if ft.ok() {
		t.Fatal("panicked task reported ok")
	}
	if calls != 1 {
		t.Fatalf("fn ran %d times, want 1", calls)
	}
	m := p.manifest()
	if len(m) != 1 || m[0].Label != "broken" || m[0].Err != "panic: injected failure 1" {
		t.Fatalf("manifest = %+v, want one entry for the panic", m)
	}
}

func TestPoolExhaustedRetriesLandInManifest(t *testing.T) {
	p := newPool(Options{Jobs: 2})
	// Two failing tasks and one healthy one, waited in a fixed order: the
	// manifest must list the failures in that wait order, and failed waits
	// must yield zero values.
	bad1 := submit(p, "bad-one", func() int { panic("broken invariant") })
	good := submit(p, "good", func() int { return 7 })
	bad2 := submit(p, "bad-two", func() int { panic("segfault-ish") })
	if v := bad1.wait(); v != 0 {
		t.Fatalf("failed task returned %d, want zero value", v)
	}
	if good.wait() != 7 || !good.ok() {
		t.Fatal("healthy task disturbed by failing neighbours")
	}
	if bad2.ok() {
		t.Fatal("failing task reported ok")
	}
	m := p.manifest()
	if len(m) != 2 {
		t.Fatalf("manifest = %+v, want 2 entries", m)
	}
	if m[0].Label != "bad-one" || m[1].Label != "bad-two" {
		t.Fatalf("manifest order = %s, %s; want wait order bad-one, bad-two", m[0].Label, m[1].Label)
	}
	for _, f := range m {
		if !strings.Contains(f.Err, "panic:") {
			t.Errorf("%s: error %q does not identify the panic", f.Label, f.Err)
		}
	}
	// Waiting again must not duplicate manifest entries.
	bad1.wait()
	if len(p.manifest()) != 2 {
		t.Fatal("re-waiting duplicated manifest entries")
	}
}

func TestPoolTimeoutAbandonsAttempt(t *testing.T) {
	p := newPool(Options{Jobs: 1, TaskTimeout: 5 * time.Millisecond})
	release := make(chan struct{})
	defer close(release)
	ft := submit(p, "stuck", func() int { <-release; return 1 })
	if ft.ok() {
		t.Fatal("stuck task reported ok")
	}
	m := p.manifest()
	if len(m) != 1 || !strings.Contains(m[0].Err, "timed out") {
		t.Fatalf("manifest = %+v, want one timeout entry", m)
	}
}

// TestRenderHolesAndManifest: failed runs surface as explicit holes, the
// average skips them, and the manifest is printed with the table.
func TestRenderHolesAndManifest(t *testing.T) {
	tbl := Table{
		ID:      "x",
		Title:   "holes",
		Columns: []string{"a", "b"},
		Rows: []Row{
			{Label: "ok", Cells: []float64{1, 3}},
			{Label: "broken", Cells: nanCells(2)},
			{Label: "half", Cells: []float64{3, math.NaN()}},
		},
		Failures: []Failure{{Label: "broken HW8x8/none", Err: "panic: boom"}},
	}
	meanRow(&tbl)
	avg := tbl.Rows[len(tbl.Rows)-1]
	if avg.Cells[0] != 2 || avg.Cells[1] != 3 {
		t.Fatalf("mean over holes = %+v, want [2 3]", avg.Cells)
	}
	s := tbl.Render()
	if !strings.Contains(s, "—") {
		t.Errorf("render has no hole marker:\n%s", s)
	}
	if !strings.Contains(s, "FAILED: broken HW8x8/none: panic: boom\n") {
		t.Errorf("render missing failure manifest:\n%s", s)
	}
}

// TestFigureDegradesOnFailure drives a whole figure through a pool failure:
// with a task timeout no simulator run can meet, the table must still
// render, with every cell holed and every run on the manifest — and the
// process must not crash.
func TestFigureDegradesOnFailure(t *testing.T) {
	o := QuickOptions()
	o.Benchmarks = []string{"swim"}
	o.Jobs = 2
	o.TaskTimeout = time.Nanosecond
	tbl := Figure4(o)
	if len(tbl.Failures) == 0 {
		t.Fatal("no failures recorded with an unmeetable deadline")
	}
	for _, r := range tbl.Rows {
		for i, v := range r.Cells {
			if !math.IsNaN(v) {
				t.Errorf("row %s cell %d = %v, want hole", r.Label, i, v)
			}
		}
	}
	if !strings.Contains(tbl.Render(), "timed out") {
		t.Error("manifest does not name the timeout")
	}
}
