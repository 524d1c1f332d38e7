package workloads

import (
	"testing"

	"tridentsp/internal/core"
)

// These tests pin each benchmark's paper-relevant character: the property
// DESIGN.md says the kernel exists to reproduce. They run at small scale
// with short budgets, asserting direction rather than magnitude.

func runPair(t *testing.T, name string, instrs uint64) (base, sw core.Results) {
	t.Helper()
	bm, ok := ByName(name)
	if !ok {
		t.Fatalf("missing benchmark %s", name)
	}
	base = core.NewSystem(core.BaselineConfig(core.HWNone), bm.Build(ScaleSmall)).Run(instrs)
	cfg := core.DefaultConfig()
	cfg.HW = core.HWNone
	sw = core.NewSystem(cfg, bm.Build(ScaleSmall)).Run(instrs)
	return base, sw
}

func TestAppluLoopExceedsThousandInstructions(t *testing.T) {
	// The defining applu property (§5.3): its inner loop body is over
	// 1000 instructions, so distance 1 is already timely.
	bm, _ := ByName("applu")
	p := bm.Build(ScaleFull)
	if len(p.Code) < 1000 {
		t.Fatalf("applu body is only %d instructions", len(p.Code))
	}
}

func TestMcfDerefIsTheWin(t *testing.T) {
	// mcf's gain must come through dereference chains (jump-pointer
	// prefetching), not plain stride prefetches alone.
	bm, _ := ByName("mcf")
	cfg := core.DefaultConfig()
	cfg.HW = core.HWNone
	withDeref := core.NewSystem(cfg, bm.Build(ScaleSmall)).Run(1_200_000)
	cfg.DerefPointers = false
	without := core.NewSystem(cfg, bm.Build(ScaleSmall)).Run(1_200_000)
	if withDeref.IPC() <= without.IPC()*1.05 {
		t.Fatalf("deref off barely matters: %.4f vs %.4f", withDeref.IPC(), without.IPC())
	}
	if withDeref.DerefChains == 0 {
		t.Fatal("no dereference chains placed for mcf")
	}
}

func TestParserStaysUnprefetchable(t *testing.T) {
	base, sw := runPair(t, "parser", 1_000_000)
	// parser must neither gain nor lose much: its loads mature.
	ratio := sw.IPC() / base.IPC()
	if ratio < 0.9 || ratio > 1.15 {
		t.Fatalf("parser SW ratio %.3f, want ~1.0", ratio)
	}
	if sw.Matured == 0 && sw.Insertions > 0 {
		t.Fatal("parser loads never matured despite insertions")
	}
}

func TestGapInterpreterTracesEndAtDispatch(t *testing.T) {
	// gap's dispatch loop ends with an indirect jump, so its traces are
	// short and handler misses stay uncovered.
	bm, _ := ByName("gap")
	cfg := core.DefaultConfig()
	res := core.NewSystem(cfg, bm.Build(ScaleSmall)).Run(1_200_000)
	if res.TracesFormed == 0 {
		t.Skip("gap formed no traces at this budget")
	}
	if res.TraceMissCoverage() > 0.9 {
		t.Fatalf("gap trace coverage %.2f, expected low (interpreter handlers uncovered)",
			res.TraceMissCoverage())
	}
}

func TestDotCoverageLowestAmongPointerSuite(t *testing.T) {
	// dot's oversized scattered-read block must cap its trace coverage
	// below the dense kernels'.
	bm, _ := ByName("dot")
	dot := core.NewSystem(core.DefaultConfig(), bm.Build(ScaleFull)).Run(1_500_000)
	bm, _ = ByName("art")
	art := core.NewSystem(core.DefaultConfig(), bm.Build(ScaleFull)).Run(1_500_000)
	if dot.TraceMissCoverage() >= art.TraceMissCoverage() {
		t.Fatalf("dot coverage %.2f not below art's %.2f",
			dot.TraceMissCoverage(), art.TraceMissCoverage())
	}
}

func TestSwimHWFriendly(t *testing.T) {
	// swim: hardware stream buffers alone must get most of the benefit
	// (the paper's §5.5 point).
	bm, _ := ByName("swim")
	none := core.NewSystem(core.BaselineConfig(core.HWNone), bm.Build(ScaleSmall)).Run(1_000_000)
	hw := core.NewSystem(core.BaselineConfig(core.HW8x8), bm.Build(ScaleSmall)).Run(1_000_000)
	if core.Speedup(hw, none) < 1.3 {
		t.Fatalf("swim HW speedup %.3f, want clearly > 1", core.Speedup(hw, none))
	}
}

func TestVisRowPointersDefeatStreamBuffers(t *testing.T) {
	// vis's scattered row storage must make the stream buffers nearly
	// useless while the software producer-deref recovers it.
	bm, _ := ByName("vis")
	none := core.NewSystem(core.BaselineConfig(core.HWNone), bm.Build(ScaleFull)).Run(2_500_000)
	hw := core.NewSystem(core.BaselineConfig(core.HW8x8), bm.Build(ScaleFull)).Run(2_500_000)
	if core.Speedup(hw, none) > 1.25 {
		t.Fatalf("vis HW speedup %.3f, expected ~1 (scattered rows)", core.Speedup(hw, none))
	}
	cfg := core.DefaultConfig()
	cfg.HW = core.HWNone
	sw := core.NewSystem(cfg, bm.Build(ScaleFull)).Run(2_500_000)
	if core.Speedup(sw, none) < core.Speedup(hw, none) {
		t.Fatalf("vis SW (%.3f) below HW (%.3f)", core.Speedup(sw, none), core.Speedup(hw, none))
	}
}

func TestArtStreamsExceedBuffers(t *testing.T) {
	// art reads 16 planes per iteration — more streams than the 8
	// hardware buffers; the software prefetcher's single same-object
	// group covers them all.
	bm, _ := ByName("art")
	cfg := core.DefaultConfig()
	cfg.HW = core.HWNone
	sw := core.NewSystem(cfg, bm.Build(ScaleSmall)).Run(1_500_000)
	if sw.PrefetchesPlaced < 10 {
		t.Fatalf("art placed only %d prefetches, want ~16 plane blocks", sw.PrefetchesPlaced)
	}
}

func TestEquakeGatherMatures(t *testing.T) {
	// equake's cache-resident gather must not attract prefetching effort.
	_, sw := runPair(t, "equake", 1_200_000)
	if sw.Repairs > 60 {
		t.Fatalf("equake repaired %d times; its loads should settle quickly", sw.Repairs)
	}
}

func TestBenchmarksHaveDistinctWorkingSets(t *testing.T) {
	// Guard against accidental aliasing between kernels: footprints and
	// code sizes should differ across the suite.
	sizes := map[int]string{}
	for _, bm := range All() {
		p := bm.Build(ScaleFull)
		key := len(p.Code)
		if other, dup := sizes[key]; dup {
			t.Logf("note: %s and %s share code size %d", bm.Name, other, key)
		}
		sizes[key] = bm.Name
		if p.Data.Footprint() == 0 {
			t.Errorf("%s: no initialized data", bm.Name)
		}
	}
}
