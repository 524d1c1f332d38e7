package workloads

import (
	"bytes"
	"slices"
	"testing"

	"tridentsp/internal/checkpoint"
	"tridentsp/internal/core"
	"tridentsp/internal/isa"
	"tridentsp/internal/program"
)

func TestAllBenchmarksBuild(t *testing.T) {
	for _, bm := range All() {
		for _, s := range []Scale{ScaleTest, ScaleSmall, ScaleFull} {
			p := bm.Build(s)
			if p == nil || len(p.Code) == 0 {
				t.Fatalf("%s at scale %d: empty program", bm.Name, s)
			}
			if p.Name != bm.Name {
				t.Errorf("%s: program named %q", bm.Name, p.Name)
			}
			// Every instruction word must decode to a valid opcode.
			for i, w := range p.Code {
				if !isa.Decode(w).Op.Valid() {
					t.Fatalf("%s: invalid instruction at index %d", bm.Name, i)
				}
			}
		}
	}
}

func TestBenchmarksNeverReadScratchRegisters(t *testing.T) {
	// r30 is reserved for the optimizer's inserted dereference code and
	// r29 for value-specialization guards; no workload may read either
	// (writing would also be suspect).
	for _, bm := range All() {
		p := bm.Build(ScaleTest)
		for i, w := range p.Code {
			in := isa.Decode(w)
			for _, r := range readRegs(in) {
				if r == 29 || r == 30 {
					t.Fatalf("%s: instruction %d reads scratch r%d: %v", bm.Name, i, r, in)
				}
			}
		}
	}
}

// readRegs mirrors trace.Reads without importing it (dependency hygiene:
// workloads must stay a leaf package over isa/program).
func readRegs(in isa.Inst) []isa.Reg {
	switch in.Op.Class() {
	case isa.ClassALU, isa.ClassFP:
		if in.Op == isa.LDI {
			return nil
		}
		if in.Op.HasImm() || in.Op == isa.MOVE {
			return []isa.Reg{in.Ra}
		}
		return []isa.Reg{in.Ra, in.Rb}
	case isa.ClassLoad, isa.ClassPrefetch, isa.ClassBranch:
		return []isa.Reg{in.Ra}
	case isa.ClassStore:
		return []isa.Reg{in.Ra, in.Rb}
	case isa.ClassJump:
		if in.Op == isa.JMP {
			return []isa.Reg{in.Ra}
		}
	}
	return nil
}

func TestAllBenchmarksRunOnBaseline(t *testing.T) {
	for _, bm := range All() {
		bm := bm
		t.Run(bm.Name, func(t *testing.T) {
			p := bm.Build(ScaleTest)
			sys := core.NewSystem(core.BaselineConfig(core.HW8x8), p)
			res := sys.Run(60_000)
			if sys.Thread().Halted() {
				t.Fatalf("%s halted prematurely at %d instrs", bm.Name, res.OrigInstrs)
			}
			if res.OrigInstrs < 60_000 {
				t.Fatalf("%s: ran only %d instrs", bm.Name, res.OrigInstrs)
			}
			if res.Mem.Loads == 0 {
				t.Fatalf("%s: no loads executed", bm.Name)
			}
			if res.IPC() <= 0 || res.IPC() > 4 {
				t.Fatalf("%s: implausible IPC %.3f", bm.Name, res.IPC())
			}
		})
	}
}

func TestAllBenchmarksRunUnderSelfRepair(t *testing.T) {
	for _, bm := range All() {
		bm := bm
		t.Run(bm.Name, func(t *testing.T) {
			p := bm.Build(ScaleTest)
			sys := core.NewSystem(core.DefaultConfig(), p)
			res := sys.Run(120_000)
			if sys.Thread().Halted() {
				t.Fatalf("%s halted prematurely", bm.Name)
			}
			// The memory-bound kernels must form traces even in short
			// runs; the irregular ones may not, but must not crash.
			_ = res
		})
	}
}

func TestHotBenchmarksFormTraces(t *testing.T) {
	// The regular loop kernels must heat up and get traces quickly.
	for _, name := range []string{"swim", "art", "mcf", "mgrid", "facerec", "wupwise"} {
		bm, ok := ByName(name)
		if !ok {
			t.Fatalf("missing benchmark %s", name)
		}
		p := bm.Build(ScaleTest)
		sys := core.NewSystem(core.DefaultConfig(), p)
		res := sys.Run(150_000)
		if res.TracesFormed == 0 {
			t.Errorf("%s: no traces formed in 150k instrs", name)
		}
	}
}

func TestMcfChaseIsStridePredictable(t *testing.T) {
	// The arena chase must lead to prefetch insertion (the DLT sees the
	// allocation-order stride even though the code has no recurrence).
	bm, _ := ByName("mcf")
	p := bm.Build(ScaleSmall)
	cfg := core.DefaultConfig()
	cfg.HW = core.HWNone
	sys := core.NewSystem(cfg, p)
	res := sys.Run(1_000_000)
	if res.Insertions == 0 {
		t.Fatal("mcf: no prefetch insertions")
	}
	if res.Mem.PrefetchesIssued == 0 {
		t.Fatal("mcf: no prefetches executed")
	}
}

func TestParserLoadsMature(t *testing.T) {
	// parser's hash probes are unprefetchable: the optimizer must give up
	// on them rather than churn.
	bm, _ := ByName("parser")
	p := bm.Build(ScaleSmall)
	cfg := core.DefaultConfig()
	cfg.HW = core.HWNone
	sys := core.NewSystem(cfg, p)
	res := sys.Run(1_500_000)
	if res.TracesFormed == 0 {
		t.Skip("parser formed no traces at this scale")
	}
	if res.Repairs > 50 {
		t.Errorf("parser: %d repairs on unprefetchable loads", res.Repairs)
	}
}

func TestByName(t *testing.T) {
	if _, ok := ByName("mcf"); !ok {
		t.Fatal("mcf missing")
	}
	if _, ok := ByName("nonesuch"); ok {
		t.Fatal("unknown benchmark found")
	}
	if len(All()) != 14 {
		t.Fatalf("expected 14 benchmarks, have %d", len(All()))
	}
}

// rawBuilders are the uncached generators behind All(), so the determinism
// check compares two real builds rather than two clones of one cached master.
var rawBuilders = map[string]func(Scale) *program.Program{
	"applu": Applu, "art": Art, "dot": Dot, "equake": Equake, "facerec": Facerec,
	"fma3d": Fma3d, "galgel": Galgel, "gap": Gap, "mcf": Mcf, "mgrid": Mgrid,
	"parser": Parser, "swim": Swim, "vis": Vis, "wupwise": Wupwise,
}

func TestDeterministicBuilds(t *testing.T) {
	// Two builds of the same benchmark must be bit-identical (experiments
	// rely on reproducibility).
	for _, bm := range All() {
		build, ok := rawBuilders[bm.Name]
		if !ok {
			t.Fatalf("%s: no raw builder listed", bm.Name)
		}
		a, b := build(ScaleTest), build(ScaleTest)
		if a.Data == b.Data {
			t.Fatalf("%s: two builds share one data image", bm.Name)
		}
		if !slices.Equal(a.Code, b.Code) {
			t.Fatalf("%s: nondeterministic code", bm.Name)
		}
		if !bytes.Equal(imageBytes(a.Data), imageBytes(b.Data)) {
			t.Fatalf("%s: nondeterministic data", bm.Name)
		}
	}
}

// imageBytes encodes a data image page for page, valid bits included: a
// diff against an empty image carries every mapped page.
func imageBytes(m *program.Memory) []byte {
	e := checkpoint.NewSaver()
	m.CheckpointDiff(e, &program.Memory{})
	return e.Bytes()
}

func TestGapHandlerTableResolves(t *testing.T) {
	p := Gap(ScaleTest)
	// Every handler-table word must point inside the code segment at an
	// aligned instruction.
	found := 0
	for _, wv := range p.Data.Snapshot() {
		if v := wv.Val; v >= p.Base && v < p.CodeEnd() && v%isa.WordSize == 0 {
			found++
		}
	}
	if found < 8 {
		t.Fatalf("handler table incomplete: %d in-code pointers", found)
	}
}
