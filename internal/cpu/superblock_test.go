package cpu

import (
	"fmt"
	"math"
	"testing"

	"tridentsp/internal/isa"
	"tridentsp/internal/memsys"
)

// runRef drives a thread through the one-step interpreter to completion.
func runRef(th *Thread) {
	for !th.Halted() {
		th.Step()
	}
}

// runBatched drives a thread through ExecSuperBlock wherever a block exists,
// falling back to Step for the instruction at PC otherwise (the same policy
// the core's fast path uses).
func runBatched(t *testing.T, th *Thread, ps *ProgramSpace) {
	t.Helper()
	for guard := 0; !th.Halted(); guard++ {
		if guard > 1_000_000 {
			t.Fatal("batched run did not terminate")
		}
		blk, ok := ps.BlockAt(th.PC())
		if !ok {
			th.Step()
			continue
		}
		ex := th.ExecSuperBlock(blk, math.MaxUint64, math.MaxInt64, nil)
		if ex.N == 0 || ex.NeedSlow {
			th.Step()
		}
	}
}

// assertSameState compares the complete architectural, timing, taint, and
// memory-system state of two threads.
func assertSameState(t *testing.T, got, want *Thread) {
	t.Helper()
	if got.PC() != want.PC() {
		t.Errorf("pc diverged: batched %#x, step %#x", got.PC(), want.PC())
	}
	if got.Now() != want.Now() {
		t.Errorf("cycle diverged: batched %d, step %d", got.Now(), want.Now())
	}
	if got.stallCycles != want.stallCycles {
		t.Errorf("stall cycles diverged: batched %d, step %d", got.stallCycles, want.stallCycles)
	}
	if got.Committed() != want.Committed() {
		t.Errorf("committed diverged: batched %d, step %d", got.Committed(), want.Committed())
	}
	for r := isa.Reg(0); r < isa.NumRegs; r++ {
		if got.Reg(r) != want.Reg(r) {
			t.Errorf("r%d diverged: batched %#x, step %#x", r, got.Reg(r), want.Reg(r))
		}
		if got.taintSrc[r] != want.taintSrc[r] {
			t.Errorf("taint[r%d] diverged: batched %#x, step %#x",
				r, got.taintSrc[r], want.taintSrc[r])
		}
	}
	if got.hier.Stats != want.hier.Stats {
		t.Errorf("memsys stats diverged:\nbatched %+v\nstep    %+v",
			got.hier.Stats, want.hier.Stats)
	}
}

// TestExecSuperBlockMatchesStep runs a memory-and-branch-heavy loop kernel
// through the batched executor and the one-step interpreter and requires
// bit-identical state, including the memory hierarchy's statistics.
func TestExecSuperBlockMatchesStep(t *testing.T) {
	// A stride loop: store then reload a word per iteration, prefetch ahead,
	// decrement, branch back. Every opcode kind a superblock admits.
	seq := []isa.Inst{
		{Op: isa.LDI, Rd: 1, Imm: 0x4000},                         // 0x1000 base
		{Op: isa.LDI, Rd: 2, Imm: 64},                             // 0x1008 counter
		{Op: isa.ST, Ra: 1, Rb: 2, Imm: 0},                        // 0x1010 loop: mem[r1] = r2
		{Op: isa.LD, Rd: 3, Ra: 1, Imm: 0},                        // 0x1018 r3 = mem[r1]
		{Op: isa.PREFETCH, Ra: 1, Imm: 256},                       // 0x1020
		{Op: isa.ADD, Rd: 4, Ra: 4, Rb: 3},                        // 0x1028 accumulate
		{Op: isa.ADDI, Rd: 1, Ra: 1, Imm: 8},                      // 0x1030 advance
		{Op: isa.SUBI, Rd: 2, Ra: 2, Imm: 1},                      // 0x1038
		{Op: isa.BNE, Ra: 2, Imm: isa.BranchDisp(0x1040, 0x1010)}, // 0x1040
		{Op: isa.HALT}, // 0x1048
	}
	p := buildProgram(t, seq)

	ref, _ := newTestThread(p)
	runRef(ref)

	th, ps := newTestThread(p)
	runBatched(t, th, ps)
	assertSameState(t, th, ref)
	if th.Reg(4) == 0 {
		t.Fatal("kernel accumulated nothing; test is vacuous")
	}
}

// coldLoadKernel has a cold load mid-block, a re-load of its line while the
// fill's expired in-flight entry is still unswept, and a plain L1 hit.
func coldLoadKernel() []isa.Inst {
	return []isa.Inst{
		{Op: isa.LDI, Rd: 1, Imm: 0x4000},    // 0x1000
		{Op: isa.ADDI, Rd: 2, Ra: 2, Imm: 7}, // 0x1008
		{Op: isa.LD, Rd: 3, Ra: 1, Imm: 0},   // 0x1010 cold: L1 miss
		{Op: isa.LD, Rd: 4, Ra: 1, Imm: 0},   // 0x1018 sweeps the expired fill
		{Op: isa.LD, Rd: 5, Ra: 1, Imm: 0},   // 0x1020 fast-probe hit
		{Op: isa.HALT},                       // 0x1028
	}
}

// batchAt runs one batch of the executor under test at th.PC().
type batchAt func(t *testing.T, th *Thread, ps *ProgramSpace, hooks *SBHooks) SBExec

// checkColdLoadContract pins the declined-load contract for one executor. A
// load the fast probe declines retires inside the batch as its last
// instruction, through Step's own access and stall charge, so after every
// batch the thread equals a twin that ran Step over the same instructions:
// registers, taint, stall cycles, clock, commit count, PC, and memsys.Stats.
// With StopBeforeMiss set, a hooked declined load instead stops the batch
// before it, leaving the hierarchy untouched.
func checkColdLoadContract(t *testing.T, run batchAt) {
	t.Helper()
	p := buildProgram(t, coldLoadKernel())
	steps := func(th *Thread, n int) {
		for i := 0; i < n; i++ {
			th.Step()
		}
	}
	batch := func(th, ref *Thread, ps *ProgramSpace, hooks *SBHooks, want SBExec, wantPC uint64) {
		t.Helper()
		ex := run(t, th, ps, hooks)
		if ex != want || th.PC() != wantPC {
			t.Fatalf("batch: %+v pc=%#x, want %+v pc=%#x", ex, th.PC(), want, wantPC)
		}
		steps(ref, ex.N)
		assertSameState(t, th, ref)
		if t.Failed() {
			t.FailNow()
		}
	}

	th, ps := newTestThread(p)
	ref, _ := newTestThread(p)
	// The cold load is the batch's last instruction although the block runs
	// on through two more loads.
	batch(th, ref, ps, nil, SBExec{N: 3, Weight: 3, WouldMiss: 1}, 0x1018)
	if th.stallCycles == 0 {
		t.Fatal("the miss charged no stall; test is vacuous")
	}
	// Wait out the fill. The line is resident but its expired in-flight entry
	// is unswept, so the probe declines again and the full access sweeps it:
	// the batch ends after this load too.
	th.AddStall(1000)
	ref.AddStall(1000)
	batch(th, ref, ps, nil, SBExec{N: 1, Weight: 1}, 0x1020)
	// Now the probe is provably idle: the third load is a fast hit.
	batch(th, ref, ps, nil, SBExec{N: 1, Weight: 1}, 0x1028)
	if th.Reg(5) != th.Reg(3) || th.Reg(4) != th.Reg(3) {
		t.Fatalf("load values diverged: r3=%#x r4=%#x r5=%#x", th.Reg(3), th.Reg(4), th.Reg(5))
	}
	if st := th.hier.Stats; st.Loads != 3 || st.L1Hits != 2 {
		t.Fatalf("hierarchy saw %d loads, %d L1 hits; want 3 and 2", st.Loads, st.L1Hits)
	}

	// Hooked: the hook observes the miss after its commit, exactly as the
	// slow path's StepInfo reports it.
	var seen []string
	hooks := &SBHooks{Load: func(pc, addr, value uint64, res memsys.Result, now int64) bool {
		seen = append(seen, fmt.Sprintf("pc=%#x addr=%#x v=%#x res=%+v now=%d", pc, addr, value, res, now))
		return false
	}}
	th, ps = newTestThread(p)
	ref, _ = newTestThread(p)
	batch(th, ref, ps, hooks, SBExec{N: 3, Weight: 3, WouldMiss: 1}, 0x1018)
	twin, _ := newTestThread(p)
	steps(twin, 2)
	info := twin.Step()
	want := fmt.Sprintf("pc=%#x addr=%#x v=%#x res=%+v now=%d",
		info.PC, info.LoadAddr, info.LoadValue, info.LoadRes, info.Now)
	if len(seen) != 1 || seen[0] != want || !info.LoadRes.L1Miss {
		t.Fatalf("load hook saw %q, want [%q] (an L1 miss)", seen, want)
	}

	// Hooked with StopBeforeMiss (an event the caller applies ahead of the
	// hook could fall due at the miss's commit): stop before the load.
	seen = nil
	hooks.StopBeforeMiss = true
	th, ps = newTestThread(p)
	ref, _ = newTestThread(p)
	batch(th, ref, ps, hooks, SBExec{N: 2, Weight: 2, NeedSlow: true}, 0x1010)
	if len(seen) != 0 || th.hier.Stats.Loads != 0 {
		t.Fatalf("pre-stopped load left a trace: hook %q, %d hierarchy loads", seen, th.hier.Stats.Loads)
	}
	th.Step()
	ref.Step()
	assertSameState(t, th, ref)
}

// TestSuperBlockMissStopsExactly pins the declined-load contract for the
// interpreting batch executor (see checkColdLoadContract).
func TestSuperBlockMissStopsExactly(t *testing.T) {
	checkColdLoadContract(t, func(t *testing.T, th *Thread, ps *ProgramSpace, hooks *SBHooks) SBExec {
		blk, ok := ps.BlockAt(th.PC())
		if !ok {
			t.Fatalf("no block at %#x", th.PC())
		}
		return th.ExecSuperBlock(blk, math.MaxUint64, math.MaxInt64, hooks)
	})
}

// TestSuperBlockFoldsBackEdge pins the loop-folding contract: once the batch
// entry coincides with the loop head, whole iterations retire per call, the
// branch predictor is trained exactly as the one-step loop trains it, and a
// final not-taken branch exits with the fall-through PC.
func TestSuperBlockFoldsBackEdge(t *testing.T) {
	seq := []isa.Inst{
		{Op: isa.LDI, Rd: 1, Imm: 8},                              // 0x1000
		{Op: isa.SUBI, Rd: 1, Ra: 1, Imm: 1},                      // 0x1008 loop
		{Op: isa.BNE, Ra: 1, Imm: isa.BranchDisp(0x1010, 0x1008)}, // 0x1010
		{Op: isa.HALT}, // 0x1018
	}
	p := buildProgram(t, seq)

	ref, _ := newTestThread(p)
	runRef(ref)

	th, ps := newTestThread(p)
	// First batch enters at 0x1000: the back-edge targets 0x1008, not the
	// entry, so the taken branch exits the batch after one iteration.
	blk, _ := ps.BlockAt(0x1000)
	ex := th.ExecSuperBlock(blk, math.MaxUint64, math.MaxInt64, nil)
	if ex.N != 3 || th.PC() != 0x1008 {
		t.Fatalf("entry batch: %+v pc=%#x, want 3 instructions ending at 0x1008", ex, th.PC())
	}
	// Second batch enters at the loop head: the remaining 7 iterations fold
	// and retire in this single call.
	blk2, _ := ps.BlockAt(0x1008)
	ex2 := th.ExecSuperBlock(blk2, math.MaxUint64, math.MaxInt64, nil)
	if ex2.N != 14 {
		t.Fatalf("folded batch retired %d instructions, want 14 (7 iterations)", ex2.N)
	}
	if th.PC() != 0x1018 {
		t.Fatalf("exit pc = %#x, want fall-through 0x1018", th.PC())
	}
	th.Step() // HALT
	assertSameState(t, th, ref)
}

// TestSuperBlockHonorsWeightBudgetAcrossFolds pins that folding does not
// overrun the weight budget: the batch stops on the instruction whose commit
// reached it, even mid-iteration.
func TestSuperBlockHonorsWeightBudgetAcrossFolds(t *testing.T) {
	seq := []isa.Inst{
		{Op: isa.SUBI, Rd: 1, Ra: 1, Imm: 1},                      // 0x1000 loop (r1 starts 0 → huge)
		{Op: isa.BNE, Ra: 1, Imm: isa.BranchDisp(0x1008, 0x1000)}, // 0x1008
		{Op: isa.HALT},
	}
	p := buildProgram(t, seq)
	th, ps := newTestThread(p)
	blk, _ := ps.BlockAt(0x1000)
	ex := th.ExecSuperBlock(blk, 11, math.MaxInt64, nil)
	if ex.N != 11 || ex.Weight != 11 {
		t.Fatalf("budget stop: %+v, want exactly 11 retired", ex)
	}
	// 11 instructions = 5 full iterations + the 6th SUBI: pc must sit on
	// the 6th iteration's branch.
	if th.PC() != 0x1008 {
		t.Fatalf("pc = %#x, want 0x1008 mid-iteration", th.PC())
	}
}

// TestBlockCacheShrinkGrow pins the SetSource length contract: re-pointing
// the cache at a shorter image trims the descriptor table, and growing it
// again yields correct block lengths everywhere (no stale descriptors).
func TestBlockCacheShrinkGrow(t *testing.T) {
	mk := func(n int) []isa.Inst {
		insts := make([]isa.Inst, n)
		for i := range insts {
			insts[i] = isa.Inst{Op: isa.ADDI, Rd: 1, Ra: 1, Imm: 1}
		}
		return insts
	}
	c := NewBlockCache(0)
	c.SetSource(mk(8), nil)
	if blk, ok := c.At(0); !ok || len(blk.Insts) != 8 {
		t.Fatalf("initial image: ok=%v len=%d, want 8", ok, len(blk.Insts))
	}

	c.SetSource(mk(3), nil)
	if len(c.ents) != 3 {
		t.Fatalf("ents not trimmed: len=%d, want 3", len(c.ents))
	}
	if blk, ok := c.At(0); !ok || len(blk.Insts) != 3 {
		t.Fatalf("shrunk image: ok=%v len=%d, want 3", ok, len(blk.Insts))
	}
	if _, ok := c.At(5 * isa.WordSize); ok {
		t.Fatal("block reported beyond the shrunk image")
	}

	c.SetSource(mk(6), nil)
	if blk, ok := c.At(0); !ok || len(blk.Insts) != 6 {
		t.Fatalf("regrown image: ok=%v len=%d, want 6", ok, len(blk.Insts))
	}
	if blk, ok := c.At(4 * isa.WordSize); !ok || len(blk.Insts) != 2 {
		t.Fatalf("regrown tail: ok=%v len=%d, want 2", ok, len(blk.Insts))
	}
}
