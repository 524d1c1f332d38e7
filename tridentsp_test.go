package tridentsp_test

import (
	"fmt"
	"strings"
	"testing"

	"tridentsp"
)

func TestPublicAPIQuickstartFlow(t *testing.T) {
	bm, ok := tridentsp.Benchmark("swim")
	if !ok {
		t.Fatal("swim missing")
	}
	prog := bm.Build(tridentsp.ScaleTest)
	base := tridentsp.Run(tridentsp.BaselineConfig(tridentsp.HWNone), prog, 100_000)
	if base.OrigInstrs < 100_000 || base.IPC() <= 0 {
		t.Fatalf("baseline run degenerate: %+v", base)
	}
	prog = bm.Build(tridentsp.ScaleTest)
	opt := tridentsp.Run(tridentsp.DefaultConfig(), prog, 100_000)
	if tridentsp.Speedup(opt, base) <= 0 {
		t.Fatal("speedup not computable")
	}
}

func TestPublicAPIBuilder(t *testing.T) {
	b := tridentsp.NewBuilder("t", 0x1000, 0x100000)
	b.Ldi(1, 5)
	b.Halt()
	p := b.MustBuild()
	sys := tridentsp.NewSystem(tridentsp.BaselineConfig(tridentsp.HWNone), p)
	sys.Run(1 << 20)
	if !sys.Thread().Halted() {
		t.Fatal("did not halt")
	}
	if sys.Thread().Reg(1) != 5 {
		t.Fatal("wrong result")
	}
}

func TestPublicAPIAssemble(t *testing.T) {
	p, err := tridentsp.Assemble("t", "ldi r1, 7\nhalt\n")
	if err != nil {
		t.Fatal(err)
	}
	sys := tridentsp.NewSystem(tridentsp.BaselineConfig(tridentsp.HWNone), p)
	sys.Run(1 << 20)
	if sys.Thread().Reg(1) != 7 {
		t.Fatal("assembled program misbehaved")
	}
	if _, err := tridentsp.Assemble("bad", "frobnicate"); err == nil {
		t.Fatal("bad source assembled")
	}
}

func TestPublicAPIExperiments(t *testing.T) {
	if len(tridentsp.Experiments()) != 14 {
		t.Fatalf("experiments = %d, want 14", len(tridentsp.Experiments()))
	}
	e, ok := tridentsp.ExperimentByID("fig4")
	if !ok {
		t.Fatal("fig4 missing")
	}
	tbl := e.Run(tridentsp.ExpOptions{
		Scale:      tridentsp.ScaleTest,
		Instrs:     120_000,
		Benchmarks: []string{"swim"},
	})
	if len(tbl.Rows) == 0 || tbl.ID != "fig4" {
		t.Fatalf("experiment table: %+v", tbl)
	}
}

// TestPublicAPIExperimentsRejectUnknownBenchmark: a typo in
// ExpOptions.Benchmarks fails loudly, naming the benchmark, in every
// experiment — it must not quietly produce a shorter table.
func TestPublicAPIExperimentsRejectUnknownBenchmark(t *testing.T) {
	for _, e := range tridentsp.Experiments() {
		t.Run(e.ID, func(t *testing.T) {
			defer func() {
				msg := fmt.Sprint(recover())
				if !strings.Contains(msg, `"mcff"`) {
					t.Fatalf("recovered %q, want a panic naming \"mcff\"", msg)
				}
			}()
			e.Run(tridentsp.ExpOptions{
				Scale:      tridentsp.ScaleTest,
				Instrs:     1000,
				Benchmarks: []string{"swim", "mcff"},
			})
		})
	}
}

func TestPublicAPIBenchmarkRegistry(t *testing.T) {
	if len(tridentsp.Benchmarks()) != 14 {
		t.Fatalf("benchmarks = %d, want 14", len(tridentsp.Benchmarks()))
	}
	if _, ok := tridentsp.Benchmark("nonesuch"); ok {
		t.Fatal("phantom benchmark")
	}
}
