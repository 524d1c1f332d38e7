package exp

import (
	"testing"

	"tridentsp/internal/core"
)

// TestTablesIdenticalOnSlowPath renders a figure and the resilience matrix
// with the fast path on and off and requires byte-identical text: the
// engine-level differential tests (internal/core) check machine state, this
// one checks the user-visible artifact end to end.
func TestTablesIdenticalOnSlowPath(t *testing.T) {
	if testing.Short() {
		t.Skip("two full quick runs")
	}
	for _, id := range []string{"fig5", "resilience"} {
		e, ok := ByID(id)
		if !ok {
			t.Fatalf("experiment %q not registered", id)
		}
		o := QuickOptions()
		if id == "resilience" {
			o.Instrs = 150_000
			o.Benchmarks = []string{"swim"}
		}
		fast := e.Run(o)
		o.Engine = &core.Engine{DisableFastPath: true}
		slow := e.Run(o)
		if f, s := fast.Render(), slow.Render(); f != s {
			t.Errorf("%s: table diverged between paths\nfast:\n%s\nslow:\n%s", id, f, s)
		}
	}
}
