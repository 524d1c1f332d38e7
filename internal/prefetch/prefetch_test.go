package prefetch

import (
	"testing"

	"tridentsp/internal/dlt"
	"tridentsp/internal/isa"
	"tridentsp/internal/program"
	"tridentsp/internal/trace"
	"tridentsp/internal/trident"
)

// rig bundles the optimizer with its substrate for tests.
type rig struct {
	t      *testing.T
	table  *dlt.Table
	cache  *trident.CodeCache
	watch  *trident.WatchTable
	links  map[uint64]uint64 // head -> linked code-cache address
	opt    *Optimizer
	base   *trace.Trace
	baseID int
}

func newRig(t *testing.T, mode Mode, p *program.Program, startPC uint64, bitmap []bool) *rig {
	t.Helper()
	tr, err := trace.Form(p, startPC, bitmap, trace.DefaultFormConfig())
	if err != nil {
		t.Fatal(err)
	}
	table := dlt.New(dlt.Config{
		Entries: 64, Assoc: 2, WindowSize: 16, MissThreshold: 4, LatencyThreshold: 17,
	})
	cache := trident.NewCodeCache(0x10000000)
	watch := trident.NewWatchTable(16)
	pl, err := cache.Place(tr)
	if err != nil {
		t.Fatal(err)
	}
	we := &trident.WatchEntry{StartPC: startPC, TraceID: pl.TraceID, Length: tr.Len()}
	we.RecordTraversal(50) // min/avg traversal time for distance math
	we.RecordTraversal(70)
	watch.Add(we)
	cfg := DefaultConfig()
	cfg.Mode = mode
	opt := New(cfg, table, cache, watch, trident.DefaultCostModel())
	opt.RegisterTrace(startPC, tr, pl.TraceID)
	return &rig{
		t: t, table: table, cache: cache, watch: watch,
		links: map[uint64]uint64{}, opt: opt, base: tr, baseID: pl.TraceID,
	}
}

// process handles one delinquent-load event and lands its insert or repair,
// as the core does at the helper thread's completion cycle.
func (r *rig) process(startPC, loadPC uint64) Result {
	r.t.Helper()
	res := r.opt.ProcessEvent(startPC, loadPC, 0)
	if err := r.opt.Land(r.place); err != nil {
		r.t.Fatal(err)
	}
	return res
}

// place stands in for the core's placement path: it places tr in place of
// version oldID, moves the watch entry (timing included) to the new version,
// and records the head's link.
func (r *rig) place(head uint64, tr *trace.Trace, oldID int) (*trident.Placement, error) {
	pl, err := r.cache.Place(tr)
	if err != nil {
		return nil, err
	}
	r.cache.Retire(oldID)
	if err := r.cache.RetargetLoops(oldID, head); err != nil {
		return nil, err
	}
	ne := &trident.WatchEntry{StartPC: head, TraceID: pl.TraceID, Length: tr.Len()}
	if oe, ok := r.watch.ByID(oldID); ok {
		ne.MinExecTime, ne.TotalExecTime, ne.Traversals = oe.MinExecTime, oe.TotalExecTime, oe.Traversals
	}
	r.watch.Remove(oldID)
	r.watch.Add(ne)
	r.links[head] = pl.Start
	return pl, nil
}

// makeDelinquent drives pc through a full DLT window of expensive strided
// misses so the table classifies it delinquent (and stride-predictable when
// enough history accumulates).
func (r *rig) makeDelinquent(pc uint64, stride int64) bool {
	fired := false
	addr := uint64(0x100000)
	for i := 0; i < 32; i++ {
		if r.table.UpdateAt(pc, addr, true, 300, 0) {
			fired = true
			break
		}
		addr = uint64(int64(addr) + stride)
	}
	return fired
}

// strideLoopProgram is the canonical strided loop:
//
//	top: ld r2, 0(r1); add r3,r3,r2; addi r1,r1,64; subi r4,r4,1; bne r4,top; halt
func strideLoopProgram(t *testing.T) (*program.Program, uint64, uint64) {
	t.Helper()
	b := program.NewBuilder("stride", 0x1000, 0x100000)
	b.Label("top")
	b.Ld(2, 1, 0)
	b.Op(isa.ADD, 3, 3, 2)
	b.OpI(isa.ADDI, 1, 1, 64)
	b.OpI(isa.SUBI, 4, 4, 1)
	b.CondBr(isa.BNE, 4, "top")
	b.Halt()
	return b.MustBuild(), 0x1000, 0x1000 // program, startPC, loadPC
}

// pointerLoopProgram is the canonical pointer chase:
//
//	top: ld r1, 0(r1); subi r4,r4,1; bne r4,top; halt
func pointerLoopProgram(t *testing.T) (*program.Program, uint64, uint64) {
	t.Helper()
	b := program.NewBuilder("chase", 0x1000, 0x100000)
	b.Label("top")
	b.Ld(1, 1, 0)
	b.OpI(isa.SUBI, 4, 4, 1)
	b.CondBr(isa.BNE, 4, "top")
	b.Halt()
	return b.MustBuild(), 0x1000, 0x1000
}

// multiFieldProgram loads three fields of one object per iteration:
//
//	top: ld r2,0(r1); ld r3,8(r1); ld r5,128(r1); addi r1,r1,256; subi r4,r4,1; bne; halt
func multiFieldProgram(t *testing.T) (*program.Program, uint64, []uint64) {
	t.Helper()
	b := program.NewBuilder("fields", 0x1000, 0x100000)
	b.Label("top")
	b.Ld(2, 1, 0)
	b.Ld(3, 1, 8)
	b.Ld(5, 1, 128)
	b.OpI(isa.ADDI, 1, 1, 256)
	b.OpI(isa.SUBI, 4, 4, 1)
	b.CondBr(isa.BNE, 4, "top")
	b.Halt()
	return b.MustBuild(), 0x1000, []uint64{0x1000, 0x1008, 0x1010}
}

func TestClassifyStrideByCodeRecurrence(t *testing.T) {
	p, start, loadPC := strideLoopProgram(t)
	r := newRig(t, ModeSelfRepair, p, start, []bool{true})
	r.makeDelinquent(loadPC, 64)
	groups := classifyTrace(r.base, r.table, true)
	if len(groups) != 1 {
		t.Fatalf("groups = %d, want 1", len(groups))
	}
	g := groups[0]
	if !g.StrideOK || g.Stride != 64 {
		t.Fatalf("stride classification: %+v", g)
	}
	if g.Members[0].Class != ClassStride {
		t.Fatalf("member class = %v", g.Members[0].Class)
	}
}

func TestClassifyStrideByDLTPrediction(t *testing.T) {
	// A pointer chase over arena-allocated nodes: no code recurrence, but
	// the DLT sees constant stride (the paper's key hardware assist).
	p, start, loadPC := pointerLoopProgram(t)
	r := newRig(t, ModeSelfRepair, p, start, []bool{true})
	// 20 constant-stride observations saturate confidence.
	addr := uint64(0x200000)
	for i := 0; i < 20; i++ {
		r.table.UpdateAt(loadPC, addr, true, 300, 0)
		addr += 48
	}
	groups := classifyTrace(r.base, r.table, true)
	if len(groups) != 1 {
		t.Fatalf("groups = %d, want 1", len(groups))
	}
	if !groups[0].StrideOK || groups[0].Stride != 48 {
		t.Fatalf("DLT stride not used: %+v", groups[0])
	}
}

func TestClassifyPointerLoad(t *testing.T) {
	p, start, loadPC := pointerLoopProgram(t)
	r := newRig(t, ModeSelfRepair, p, start, []bool{true})
	// Irregular addresses: no stride, but p=p->next is a pointer load.
	addrs := []uint64{0x1000, 0x9000, 0x3000, 0x4400, 0x8800, 0x2000}
	for i := 0; i < 30; i++ {
		r.table.UpdateAt(loadPC, addrs[i%len(addrs)]*uint64(1+i), true, 300, 0)
	}
	groups := classifyTrace(r.base, r.table, true)
	if len(groups) != 1 {
		t.Fatalf("groups = %d, want 1", len(groups))
	}
	if groups[0].StrideOK {
		t.Fatalf("irregular chase classified stride: %+v", groups[0])
	}
	if groups[0].Members[0].Class != ClassPointer {
		t.Fatalf("class = %v, want pointer", groups[0].Members[0].Class)
	}
}

func TestClassifySameObjectGrouping(t *testing.T) {
	p, start, loadPCs := multiFieldProgram(t)
	r := newRig(t, ModeSelfRepair, p, start, []bool{true})
	for _, pc := range loadPCs {
		r.makeDelinquent(pc, 256)
	}
	groups := classifyTrace(r.base, r.table, true)
	if len(groups) != 1 {
		t.Fatalf("same-object loads split into %d groups", len(groups))
	}
	if len(groups[0].Members) != 3 {
		t.Fatalf("members = %d, want 3", len(groups[0].Members))
	}
	if groups[0].MinOffset() != 0 {
		t.Fatalf("min offset = %d", groups[0].MinOffset())
	}

	// Without grouping (basic mode) each load is its own group.
	degen := classifyTrace(r.base, r.table, false)
	if len(degen) != 3 {
		t.Fatalf("basic mode groups = %d, want 3", len(degen))
	}
}

func TestClassifyGenerationSplitsGroups(t *testing.T) {
	// Loads of the same register across a redefinition are different
	// objects.
	b := program.NewBuilder("gen", 0x1000, 0x100000)
	b.Label("top")
	b.Ld(2, 1, 0)
	b.OpI(isa.ADDI, 1, 1, 64)
	b.Ld(3, 1, 0) // same reg, new generation
	b.OpI(isa.ADDI, 1, 1, 64)
	b.OpI(isa.SUBI, 4, 4, 1)
	b.CondBr(isa.BNE, 4, "top")
	b.Halt()
	p := b.MustBuild()
	r := newRig(t, ModeSelfRepair, p, 0x1000, []bool{true})
	r.makeDelinquent(0x1000, 128)
	r.makeDelinquent(0x1010, 128)
	groups := classifyTrace(r.base, r.table, true)
	if len(groups) != 2 {
		t.Fatalf("generation-crossing loads grouped: %d groups", len(groups))
	}
}

func TestPrefetchOffsetsSkipAndExtraBlock(t *testing.T) {
	g := &Group{Members: []Member{
		{Offset: 0}, {Offset: 8}, {Offset: 48}, {Offset: 128},
	}}
	offs := prefetchOffsets(g, 64, 0, false)
	// Conservative rule (alignment unknown): 0 prefetched; 8 and 48 within
	// the line -> skipped, extra block 64; 128 is its own block.
	want := []int64{0, 64, 128}
	if len(offs) != len(want) {
		t.Fatalf("offsets = %v, want %v", offs, want)
	}
	for i := range want {
		if offs[i] != want[i] {
			t.Fatalf("offsets = %v, want %v", offs, want)
		}
	}
}

func TestPrefetchOffsetsExtraBlockNotDuplicated(t *testing.T) {
	g := &Group{Members: []Member{
		{Offset: 0}, {Offset: 8}, {Offset: 64},
	}}
	offs := prefetchOffsets(g, 64, 0, false)
	// The skip under block 0 wants extra block 64, which is already
	// prefetched for the member at 64: no duplicate.
	want := []int64{0, 64}
	if len(offs) != len(want) || offs[0] != 0 || offs[1] != 64 {
		t.Fatalf("offsets = %v, want %v", offs, want)
	}
}

func TestPrefetchOffsetsSingleLoad(t *testing.T) {
	g := &Group{Members: []Member{{Offset: 16}}}
	offs := prefetchOffsets(g, 64, 0, false)
	if len(offs) != 1 || offs[0] != 16 {
		t.Fatalf("offsets = %v", offs)
	}
}

func TestPrefetchOffsetsAlignedDedup(t *testing.T) {
	// With a known line-aligned base, offsets 0 and 8 share a block and no
	// extra block is fetched; 128 is its own block.
	g := &Group{Members: []Member{{Offset: 0}, {Offset: 8}, {Offset: 128}}}
	offs := prefetchOffsets(g, 64, 0, true)
	want := []int64{0, 128}
	if len(offs) != 2 || offs[0] != want[0] || offs[1] != want[1] {
		t.Fatalf("offsets = %v, want %v", offs, want)
	}
}

func TestPrefetchOffsetsMisalignedCrossing(t *testing.T) {
	// Base at line offset 60: member offset 8 lands in the next block, so
	// two blocks are prefetched even though the offsets are 8 apart.
	g := &Group{Members: []Member{{Offset: 0}, {Offset: 8}}}
	offs := prefetchOffsets(g, 64, 60, true)
	if len(offs) != 2 {
		t.Fatalf("offsets = %v, want two blocks", offs)
	}
}

func TestFloorDiv(t *testing.T) {
	cases := []struct{ a, b, want int64 }{
		{0, 64, 0}, {63, 64, 0}, {64, 64, 1}, {-1, 64, -1}, {-64, 64, -1}, {-65, 64, -2},
	}
	for _, c := range cases {
		if got := floorDiv(c.a, c.b); got != c.want {
			t.Errorf("floorDiv(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestInsertStridePrefetch(t *testing.T) {
	p, start, loadPC := strideLoopProgram(t)
	r := newRig(t, ModeSelfRepair, p, start, []bool{true})
	r.makeDelinquent(loadPC, 64)

	res := r.process(start, loadPC)
	if res.Kind != ResultInserted {
		t.Fatalf("result = %v", res.Kind)
	}
	// The head must be re-linked to a new trace.
	addr, ok := r.links[start]
	if !ok {
		t.Fatal("trace not linked")
	}
	pl, ok := r.cache.PlacementAt(addr)
	if !ok {
		t.Fatal("linked address not in cache")
	}
	// The new trace must contain exactly one prefetch, before the load,
	// with imm = 0 + 64*1 (self-repair starts at distance 1).
	var prefIdx, loadIdx = -1, -1
	for i := range pl.Trace.Insts {
		switch pl.Trace.Insts[i].Inst.Op {
		case isa.PREFETCH:
			prefIdx = i
			if got := pl.Trace.Insts[i].Inst.Imm; got != 64 {
				t.Fatalf("prefetch imm = %d, want 64", got)
			}
			if pl.Trace.Insts[i].Inst.Ra != 1 {
				t.Fatalf("prefetch base = %v", pl.Trace.Insts[i].Inst.Ra)
			}
			if !pl.Trace.Insts[i].Inserted || pl.Trace.Insts[i].Weight != 0 {
				t.Fatal("inserted prefetch must have weight 0")
			}
		case isa.LD:
			loadIdx = i
		}
	}
	if prefIdx == -1 || loadIdx == -1 || prefIdx > loadIdx {
		t.Fatalf("prefetch placement wrong: pref=%d load=%d", prefIdx, loadIdx)
	}
	// Weight of the new trace equals the base trace's.
	if pl.Trace.TotalWeight() != r.base.TotalWeight() {
		t.Fatalf("weight changed: %d -> %d", pl.Trace.TotalWeight(), r.base.TotalWeight())
	}
	// Distance bookkeeping.
	if d := r.opt.Distance(start, loadPC); d != 1 {
		t.Fatalf("distance = %d, want 1", d)
	}
	// Old trace retired, new live.
	if r.cache.LiveTraces() != 1 {
		t.Fatalf("live traces = %d", r.cache.LiveTraces())
	}
}

func TestInsertEstimatedDistanceBasicMode(t *testing.T) {
	p, start, loadPC := strideLoopProgram(t)
	r := newRig(t, ModeBasic, p, start, []bool{true})
	r.makeDelinquent(loadPC, 64)
	res := r.process(start, loadPC)
	if res.Kind != ResultInserted {
		t.Fatalf("result = %v", res.Kind)
	}
	// Equation 2: avg miss latency 300 over avg traversal 60 -> distance 5.
	if d := r.opt.Distance(start, loadPC); d != 5 {
		t.Fatalf("estimated distance = %d, want 5", d)
	}
	pl, _ := r.cache.PlacementAt(r.links[start])
	for i := range pl.Trace.Insts {
		if pl.Trace.Insts[i].Inst.Op == isa.PREFETCH {
			if got := pl.Trace.Insts[i].Inst.Imm; got != 64*5 {
				t.Fatalf("prefetch imm = %d, want 320", got)
			}
		}
	}
}

func TestInsertDerefForPointerLoad(t *testing.T) {
	p, start, loadPC := pointerLoopProgram(t)
	r := newRig(t, ModeSelfRepair, p, start, []bool{true})
	// Irregular chase: pointer class only.
	for i := 0; i < 32; i++ {
		r.table.UpdateAt(loadPC, uint64(0x1000+i*i*577), true, 300, 0)
	}
	res := r.process(start, loadPC)
	if res.Kind != ResultInserted {
		t.Fatalf("result = %v", res.Kind)
	}
	pl, _ := r.cache.PlacementAt(r.links[start])
	// Expect ldnf scratch, 0(r1) then prefetch 0(scratch) right after the
	// load.
	var seq []isa.Op
	for i := range pl.Trace.Insts {
		seq = append(seq, pl.Trace.Insts[i].Inst.Op)
	}
	found := false
	for i := 0; i+2 < len(seq); i++ {
		if seq[i] == isa.LD && seq[i+1] == isa.LDNF && seq[i+2] == isa.PREFETCH {
			found = true
			ldnf := pl.Trace.Insts[i+1].Inst
			pf := pl.Trace.Insts[i+2].Inst
			if ldnf.Rd != DefaultConfig().ScratchReg || ldnf.Ra != 1 {
				t.Fatalf("ldnf regs: %v", ldnf)
			}
			if pf.Ra != DefaultConfig().ScratchReg {
				t.Fatalf("prefetch base: %v", pf)
			}
		}
	}
	if !found {
		t.Fatalf("deref chain not inserted:\n%s", pl.Trace)
	}
	if r.opt.Stats.DerefChainsPlaced == 0 {
		t.Fatal("deref stat not counted")
	}
}

func TestSameObjectSinglePrefetchCoversGroup(t *testing.T) {
	p, start, loadPCs := multiFieldProgram(t)
	r := newRig(t, ModeSelfRepair, p, start, []bool{true})
	for _, pc := range loadPCs {
		r.makeDelinquent(pc, 256)
	}
	res := r.process(start, loadPCs[0])
	if res.Kind != ResultInserted {
		t.Fatalf("result = %v", res.Kind)
	}
	pl, _ := r.cache.PlacementAt(r.links[start])
	var imms []int64
	for i := range pl.Trace.Insts {
		if pl.Trace.Insts[i].Inst.Op == isa.PREFETCH {
			imms = append(imms, pl.Trace.Insts[i].Inst.Imm)
		}
	}
	// The base alignment is known from the DLT (line-aligned), so offsets
	// 0 and 8 dedupe to one block and 128 gets its own: with distance 1
	// and stride 256, imms = {0,128} + 256 = {256, 384}.
	want := []int64{256, 384}
	if len(imms) != 2 {
		t.Fatalf("prefetches = %v, want %v", imms, want)
	}
	for i := range want {
		if imms[i] != want[i] {
			t.Fatalf("prefetches = %v, want %v", imms, want)
		}
	}
}

func TestSelfRepairIncreasesDistanceWhileLatencyImproves(t *testing.T) {
	p, start, loadPC := strideLoopProgram(t)
	r := newRig(t, ModeSelfRepair, p, start, []bool{true})
	r.makeDelinquent(loadPC, 64)
	res := r.process(start, loadPC)

	// Repair events with decreasing miss latency: distance keeps growing.
	lat := int64(300)
	for rep := 0; rep < 3; rep++ {
		r.fillEventWindow(loadPC, lat)
		res = r.process(start, loadPC)
		if res.Kind != ResultRepaired {
			t.Fatalf("repair %d: %v", rep, res.Kind)
		}
		lat -= 60
	}
	if d := r.opt.Distance(start, loadPC); d != 4 {
		t.Fatalf("distance after 3 improving repairs = %d, want 4", d)
	}
	// The placed prefetch instruction's imm must track the distance.
	pl, _ := r.cache.PlacementAt(r.links[start])
	for pc := pl.Start; pc < pl.End; pc += isa.WordSize {
		if in, _ := r.cache.Fetch(pc); in.Op == isa.PREFETCH {
			if in.Imm != 64*4 {
				t.Fatalf("patched imm = %d, want 256", in.Imm)
			}
		}
	}
}

// fillEventWindow drives the load through a full window of misses at the
// given latency so the next ProcessEvent sees fresh statistics.
func (r *rig) fillEventWindow(pc uint64, lat int64) {
	r.t.Helper()
	addr := uint64(0x400000)
	fired := false
	for i := 0; i < 64 && !fired; i++ {
		fired = r.table.UpdateAt(pc, addr, true, lat, 0)
		addr += 64
	}
	if !fired {
		r.t.Fatal("window did not fire")
	}
}

func TestSelfRepairBacksOffWhenLatencyWorsens(t *testing.T) {
	p, start, loadPC := strideLoopProgram(t)
	r := newRig(t, ModeSelfRepair, p, start, []bool{true})
	r.makeDelinquent(loadPC, 64)
	r.process(start, loadPC)

	// First repair: improve (up to 2). Second: worsen -> back to 1.
	r.fillEventWindow(loadPC, 200)
	r.process(start, loadPC)
	if d := r.opt.Distance(start, loadPC); d != 2 {
		t.Fatalf("distance = %d, want 2", d)
	}
	r.fillEventWindow(loadPC, 340)
	r.process(start, loadPC)
	if d := r.opt.Distance(start, loadPC); d != 1 {
		t.Fatalf("distance after worsening = %d, want 1", d)
	}
}

func TestSelfRepairMaturesAfterBudget(t *testing.T) {
	p, start, loadPC := strideLoopProgram(t)
	r := newRig(t, ModeSelfRepair, p, start, []bool{true})
	r.makeDelinquent(loadPC, 64)
	r.process(start, loadPC)

	matured := false
	for i := 0; i < 100; i++ {
		r.fillEventWindow(loadPC, 300)
		res := r.process(start, loadPC)
		if res.Kind == ResultMatured {
			matured = true
			break
		}
	}
	if !matured {
		t.Fatal("load never matured despite endless events")
	}
	// A matured load's DLT entry stops firing.
	addr := uint64(0x800000)
	for i := 0; i < 64; i++ {
		if r.table.UpdateAt(loadPC, addr, true, 300, 0) {
			t.Fatal("mature load fired an event")
		}
		addr += 64
	}
}

func TestDistanceNeverExceedsMax(t *testing.T) {
	p, start, loadPC := strideLoopProgram(t)
	r := newRig(t, ModeSelfRepair, p, start, []bool{true})
	r.makeDelinquent(loadPC, 64)
	r.process(start, loadPC)

	// maxDist = MemLatency(350) / minExec(50) = 7.
	lat := int64(340)
	for i := 0; i < 40; i++ {
		r.fillEventWindow(loadPC, lat)
		res := r.process(start, loadPC)
		if res.Kind == ResultMatured {
			break
		}
		if lat > 40 {
			lat -= 10 // monotone improvement pushes distance up
		}
		if d := r.opt.Distance(start, loadPC); d > 7 {
			t.Fatalf("distance %d exceeded max 7", d)
		}
		if d := r.opt.Distance(start, loadPC); d < 1 {
			t.Fatalf("distance %d below 1", d)
		}
	}
}

func TestUnprefetchableLoadMatures(t *testing.T) {
	// An irregular load that is neither stride nor pointer: matured on
	// first event.
	b := program.NewBuilder("hash", 0x1000, 0x100000)
	b.Label("top")
	b.Op(isa.XOR, 1, 1, 5)
	b.OpI(isa.ANDI, 2, 1, 0xffff)
	b.Ld(3, 2, 0) // base computed by hashing: not a recurrence
	b.OpI(isa.SUBI, 4, 4, 1)
	b.CondBr(isa.BNE, 4, "top")
	b.Halt()
	p := b.MustBuild()
	loadPC := uint64(0x1010)
	r := newRig(t, ModeSelfRepair, p, 0x1000, []bool{true})
	for i := 0; i < 32; i++ {
		r.table.UpdateAt(loadPC, uint64(0x1000+i*i*701), true, 300, 0)
	}
	res := r.opt.ProcessEvent(0x1000, loadPC, 0)
	if res.Kind != ResultMatured {
		t.Fatalf("result = %v, want matured", res.Kind)
	}
	if r.opt.Stats.Matured == 0 {
		t.Fatal("mature stat not counted")
	}
}

func TestProcessEventUnknownTrace(t *testing.T) {
	p, start, loadPC := strideLoopProgram(t)
	r := newRig(t, ModeSelfRepair, p, start, []bool{true})
	res := r.opt.ProcessEvent(0xdead000, loadPC, 0)
	if res.Kind != ResultNone {
		t.Fatalf("unknown trace result = %v", res.Kind)
	}
}

func TestWholeObjectModeUsesEstimatedDistance(t *testing.T) {
	p, start, loadPCs := multiFieldProgram(t)
	r := newRig(t, ModeWholeObject, p, start, []bool{true})
	for _, pc := range loadPCs {
		r.makeDelinquent(pc, 256)
	}
	res := r.process(start, loadPCs[0])
	if res.Kind != ResultInserted {
		t.Fatalf("result = %v", res.Kind)
	}
	if d := r.opt.Distance(start, loadPCs[0]); d != 5 {
		t.Fatalf("whole-object distance = %d, want 5 (eq. 2)", d)
	}
	// All three loads map to the same group.
	g1 := r.opt.Distance(start, loadPCs[1])
	g2 := r.opt.Distance(start, loadPCs[2])
	if g1 != 5 || g2 != 5 {
		t.Fatalf("group members see distances %d,%d", g1, g2)
	}
}

func TestRepairInNonRepairModeMatures(t *testing.T) {
	p, start, loadPC := strideLoopProgram(t)
	r := newRig(t, ModeBasic, p, start, []bool{true})
	r.makeDelinquent(loadPC, 64)
	r.process(start, loadPC)
	r.fillEventWindow(loadPC, 300)
	res := r.opt.ProcessEvent(start, loadPC, 0)
	if res.Kind != ResultMatured {
		t.Fatalf("basic-mode second event = %v, want matured", res.Kind)
	}
}

func TestScratchRegisterConflictSkipsDeref(t *testing.T) {
	// A chase whose trace already reads the scratch register: deref
	// insertion must be suppressed, and the load matures instead.
	b := program.NewBuilder("conflict", 0x1000, 0x100000)
	b.Label("top")
	b.Ld(1, 1, 0)
	b.Op(isa.ADD, 3, 3, 30) // reads r30 (the scratch register)
	b.OpI(isa.SUBI, 4, 4, 1)
	b.CondBr(isa.BNE, 4, "top")
	b.Halt()
	p := b.MustBuild()
	r := newRig(t, ModeSelfRepair, p, 0x1000, []bool{true})
	for i := 0; i < 32; i++ {
		r.table.UpdateAt(0x1000, uint64(0x1000+i*i*577), true, 300, 0)
	}
	res := r.process(0x1000, 0x1000)
	if res.Kind == ResultInserted {
		pl, _ := r.cache.PlacementAt(r.links[0x1000])
		for i := range pl.Trace.Insts {
			if pl.Trace.Insts[i].Inst.Op == isa.LDNF {
				t.Fatal("deref chain clobbers a live register")
			}
		}
	}
}
