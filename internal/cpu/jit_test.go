package cpu

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"tridentsp/internal/isa"
	"tridentsp/internal/memsys"
)

// runJIT drives a thread through the compiled tier at threshold 0 (compile on
// first use), falling back to the interpreter exactly as the core fast path
// does: Step when no block exists, and Step once after a NeedSlow or empty
// batch.
func runJIT(t *testing.T, th *Thread, ps *ProgramSpace) {
	t.Helper()
	for guard := 0; !th.Halted(); guard++ {
		if guard > 1_000_000 {
			t.Fatal("jit run did not terminate")
		}
		blk, cb, ok := ps.BlockAtJIT(th.PC(), 0)
		if !ok {
			th.Step()
			continue
		}
		var ex SBExec
		if cb != nil {
			ex = th.ExecCompiled(cb, math.MaxUint64, math.MaxInt64, nil)
		} else {
			ex = th.ExecSuperBlock(blk, math.MaxUint64, math.MaxInt64, nil)
		}
		if ex.N == 0 || ex.NeedSlow {
			th.Step()
		}
	}
}

// richKernel is a loop that touches every segment kind the compiler emits:
// store, non-faulting load, load, prefetch, a long ALU run that mixes NOP and
// zero-register writes (the sparse fuse) with live arithmetic (the dense
// fuse), and a folding back-edge. Loop head at 0x1020.
func richKernel() []isa.Inst {
	return []isa.Inst{
		{Op: isa.LDI, Rd: 1, Imm: 0x4000},                         // 0x1000 base pointer
		{Op: isa.LDI, Rd: 2, Imm: 48},                             // 0x1008 counter
		{Op: isa.LDI, Rd: 6, Imm: 0x1234},                         // 0x1010 store pattern
		{Op: isa.LDI, Rd: 8, Imm: 3},                              // 0x1018 shift amount
		{Op: isa.ST, Ra: 1, Rb: 6, Imm: 0},                        // 0x1020 loop: mem[r1] = r6
		{Op: isa.LDNF, Rd: 7, Ra: 1, Imm: 8},                      // 0x1028
		{Op: isa.LD, Rd: 3, Ra: 1, Imm: 0},                        // 0x1030
		{Op: isa.PREFETCH, Ra: 1, Imm: 128},                       // 0x1038
		{Op: isa.NOP},                                             // 0x1040 elided by the sparse fuse
		{Op: isa.ADD, Rd: 0, Ra: 3, Rb: 6},                        // 0x1048 zero-reg write: also elided
		{Op: isa.XOR, Rd: 4, Ra: 4, Rb: 3},                        // 0x1050
		{Op: isa.SLL, Rd: 5, Ra: 3, Rb: 8},                        // 0x1058
		{Op: isa.CMPLT, Rd: 9, Ra: 2, Rb: 8},                      // 0x1060
		{Op: isa.MOVE, Rd: 10, Ra: 4},                             // 0x1068
		{Op: isa.ADDI, Rd: 1, Ra: 1, Imm: 8},                      // 0x1070
		{Op: isa.SUBI, Rd: 2, Ra: 2, Imm: 1},                      // 0x1078
		{Op: isa.BNE, Ra: 2, Imm: isa.BranchDisp(0x1080, 0x1020)}, // 0x1080
		{Op: isa.HALT},                                            // 0x1088
	}
}

// TestExecCompiledMatchesInterpreter is the JIT tier's core equivalence
// obligation: the compiled chain run to completion leaves bit-identical
// architectural, timing, taint, and memory-system state to the one-step
// interpreter, on a kernel that exercises every segment kind.
func TestExecCompiledMatchesInterpreter(t *testing.T) {
	p := buildProgram(t, richKernel())

	ref, _ := newTestThread(p)
	runRef(ref)

	th, ps := newTestThread(p)
	runJIT(t, th, ps)
	assertSameState(t, th, ref)
	if th.Reg(5) == 0 {
		t.Fatal("kernel computed nothing; test is vacuous")
	}
	if ps.BlockStats().Compiles == 0 {
		t.Fatal("no block was compiled; test never exercised the JIT tier")
	}
}

// TestExecCompiledStopsAfterColdLoad pins the declined-load contract for the
// compiled tier (see checkColdLoadContract): every batch there must run as a
// compiled chain.
func TestExecCompiledStopsAfterColdLoad(t *testing.T) {
	checkColdLoadContract(t, func(t *testing.T, th *Thread, ps *ProgramSpace, hooks *SBHooks) SBExec {
		_, cb, ok := ps.BlockAtJIT(th.PC(), 0)
		if !ok || cb == nil || cb.Entry() != th.PC() {
			t.Fatalf("no compiled chain at %#x: ok=%v cb=%v", th.PC(), ok, cb)
		}
		return th.ExecCompiled(cb, math.MaxUint64, math.MaxInt64, hooks)
	})
}

// TestExecCompiledFoldsBackEdge pins the chain's loop folding: entered at the
// loop head, whole iterations retire per call and the final not-taken branch
// exits with the fall-through PC and the interpreter's exact state.
func TestExecCompiledFoldsBackEdge(t *testing.T) {
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
	// Entered at 0x1000 the back-edge targets 0x1008, not the entry: the
	// taken branch exits the chain after one iteration.
	_, cb, _ := ps.BlockAtJIT(0x1000, 0)
	ex := th.ExecCompiled(cb, math.MaxUint64, math.MaxInt64, nil)
	if ex.N != 3 || th.PC() != 0x1008 {
		t.Fatalf("entry chain: %+v pc=%#x, want 3 instructions ending at 0x1008", ex, th.PC())
	}
	// Entered at the loop head the remaining 7 iterations fold.
	_, cb2, _ := ps.BlockAtJIT(0x1008, 0)
	ex2 := th.ExecCompiled(cb2, math.MaxUint64, math.MaxInt64, nil)
	if ex2.N != 14 {
		t.Fatalf("folded chain retired %d instructions, want 14 (7 iterations)", ex2.N)
	}
	if th.PC() != 0x1018 {
		t.Fatalf("exit pc = %#x, want fall-through 0x1018", th.PC())
	}
	th.Step() // HALT
	assertSameState(t, th, ref)
}

// TestExecCompiledHonorsWeightBudgetAcrossFolds pins that folding never
// overruns the weight budget: the chain stops on the instruction whose commit
// reached it, mid-iteration, with PC resuming there.
func TestExecCompiledHonorsWeightBudgetAcrossFolds(t *testing.T) {
	seq := []isa.Inst{
		{Op: isa.SUBI, Rd: 1, Ra: 1, Imm: 1},                      // 0x1000 loop (r1 starts 0 → huge)
		{Op: isa.BNE, Ra: 1, Imm: isa.BranchDisp(0x1008, 0x1000)}, // 0x1008
		{Op: isa.HALT},
	}
	p := buildProgram(t, seq)
	th, ps := newTestThread(p)
	_, cb, _ := ps.BlockAtJIT(0x1000, 0)
	ex := th.ExecCompiled(cb, 11, math.MaxInt64, nil)
	if ex.N != 11 || ex.Weight != 11 {
		t.Fatalf("budget stop: %+v, want exactly 11 retired", ex)
	}
	// 11 instructions = 5 full iterations + the 6th SUBI: pc must sit on the
	// 6th iteration's branch.
	if th.PC() != 0x1008 {
		t.Fatalf("pc = %#x, want 0x1008 mid-iteration", th.PC())
	}
}

// TestExecCompiledLockstepRandomBudgets runs the compiled chain and the
// interpreter batch in lockstep over the rich kernel with randomized weight
// budgets and horizons, requiring identical SBExec results and identical
// thread state after every single batch — the stop/resume contract at every
// boundary, not just at termination.
func TestExecCompiledLockstepRandomBudgets(t *testing.T) {
	p := buildProgram(t, richKernel())
	want, wps := newTestThread(p) // interpreter batches
	got, gps := newTestThread(p)  // compiled chains
	rng := rand.New(rand.NewSource(0xC0FFEE))

	batches := 0
	for guard := 0; !want.Halted(); guard++ {
		if guard > 1_000_000 {
			t.Fatal("lockstep run did not terminate")
		}
		blk, ok := wps.BlockAt(want.PC())
		_, cb, jok := gps.BlockAtJIT(got.PC(), 0)
		if ok != jok {
			t.Fatalf("block derivation diverged at pc %#x: batch %v, jit %v",
				want.PC(), ok, jok)
		}
		if !ok || cb == nil {
			want.Step()
			got.Step()
			continue
		}
		budget := uint64(1 + rng.Intn(23))
		horizon := int64(math.MaxInt64)
		if rng.Intn(4) == 0 {
			horizon = want.Now() + int64(rng.Intn(40))
		}
		exW := want.ExecSuperBlock(blk, budget, horizon, nil)
		exG := got.ExecCompiled(cb, budget, horizon, nil)
		if exW != exG {
			t.Fatalf("batch %d (budget=%d horizon=%d): batch %+v, jit %+v",
				batches, budget, horizon, exW, exG)
		}
		assertSameState(t, got, want)
		if t.Failed() {
			t.FailNow()
		}
		batches++
		if exW.N == 0 || exW.NeedSlow {
			want.Step()
			got.Step()
		}
	}
	runRef(want) // drain any trailing non-block instructions
	runRef(got)
	assertSameState(t, got, want)
	if batches < 10 {
		t.Fatalf("only %d lockstep batches ran; test is vacuous", batches)
	}
}

// hookLog records every SBHooks callback with its full argument tuple, and
// optionally stops on every stopEvery-th load — covering both the observation
// parity and the hook-requested-stop parity of the two executors.
type hookLog struct {
	events    []string
	loads     int
	stopEvery int
}

func (h *hookLog) hooks() *SBHooks {
	return &SBHooks{
		Load: func(pc, addr, value uint64, res memsys.Result, now int64) bool {
			h.loads++
			h.events = append(h.events, fmt.Sprintf(
				"ld pc=%#x addr=%#x v=%#x out=%d now=%d", pc, addr, value, res.Outcome, now))
			return h.stopEvery > 0 && h.loads%h.stopEvery == 0
		},
		Branch: func(pc uint64, in *isa.Inst, taken bool, now int64) bool {
			h.events = append(h.events, fmt.Sprintf(
				"br pc=%#x op=%d taken=%v now=%d", pc, in.Op, taken, now))
			return false
		},
		LoopBack: func(now int64) {
			h.events = append(h.events, fmt.Sprintf("loop now=%d", now))
		},
	}
}

// TestExecCompiledHookParity drives both executors over the rich kernel with
// recording hooks (stopping on every third load) and requires the two
// callback streams — loads with values and outcomes, branches with
// directions, loop-back folds, all with cycle stamps — to be identical.
func TestExecCompiledHookParity(t *testing.T) {
	p := buildProgram(t, richKernel())

	run := func(jit bool) *hookLog {
		th, ps := newTestThread(p)
		h := &hookLog{stopEvery: 3}
		hk := h.hooks()
		for guard := 0; !th.Halted(); guard++ {
			if guard > 1_000_000 {
				t.Fatal("hooked run did not terminate")
			}
			blk, cb, ok := ps.BlockAtJIT(th.PC(), 0)
			if !ok {
				th.Step()
				continue
			}
			var ex SBExec
			if jit && cb != nil {
				ex = th.ExecCompiled(cb, math.MaxUint64, math.MaxInt64, hk)
			} else {
				ex = th.ExecSuperBlock(blk, math.MaxUint64, math.MaxInt64, hk)
			}
			if ex.N == 0 || ex.NeedSlow {
				th.Step()
			}
		}
		return h
	}

	batch, jit := run(false), run(true)
	if len(batch.events) != len(jit.events) {
		t.Fatalf("hook stream lengths diverged: batch %d, jit %d",
			len(batch.events), len(jit.events))
	}
	for i := range batch.events {
		if batch.events[i] != jit.events[i] {
			t.Fatalf("hook event %d diverged:\nbatch %s\njit   %s",
				i, batch.events[i], jit.events[i])
		}
	}
	if batch.loads == 0 {
		t.Fatal("no load hooks fired; test is vacuous")
	}
	var folds bool
	for _, e := range batch.events {
		if len(e) > 4 && e[:4] == "loop" {
			folds = true
		}
	}
	if !folds {
		t.Fatal("no loop-back folds observed; test is vacuous")
	}
}

// TestCompiledMatches pins the content-revalidation predicate: identical
// instructions and weights match; any changed immediate, a different length,
// a changed weight, or nil-versus-present weights do not.
func TestCompiledMatches(t *testing.T) {
	seq := []isa.Inst{
		{Op: isa.ADDI, Rd: 1, Ra: 1, Imm: 4},
		{Op: isa.XOR, Rd: 2, Ra: 2, Rb: 1},
		{Op: isa.BNE, Ra: 1, Imm: isa.BranchDisp(0x2010, 0x2000)},
	}
	b := Block{Insts: seq}
	cb := compileBlock(b, 0x2000)
	if cb == nil {
		t.Fatal("compileBlock refused a well-formed block")
	}
	if !cb.Matches(b) {
		t.Fatal("chain does not match its own source")
	}
	if cb.Matches(Block{Insts: seq[:2]}) {
		t.Fatal("matched a shorter block")
	}
	mut := append([]isa.Inst(nil), seq...)
	mut[0].Imm = 99
	if cb.Matches(Block{Insts: mut}) {
		t.Fatal("matched a block with a changed immediate")
	}

	bw := Block{Insts: seq, Weights: []int{2, 3, 4}}
	cbw := compileBlock(bw, 0x2000)
	if !cbw.Matches(bw) {
		t.Fatal("weighted chain does not match its own source")
	}
	if cbw.Matches(b) || cb.Matches(bw) {
		t.Fatal("nil and present weights must not match")
	}
	w2 := Block{Insts: seq, Weights: []int{2, 3, 5}}
	if cbw.Matches(w2) {
		t.Fatal("matched a block with a changed weight")
	}
}

// TestCompileSharedCache pins the process-wide compile cache: identical
// content at the same entry yields the same chain (including across two
// independent BlockCaches), while a different entry or different content
// never reuses it; malformed blocks are refused, not compiled.
func TestCompileSharedCache(t *testing.T) {
	seq := []isa.Inst{
		{Op: isa.ADDI, Rd: 1, Ra: 1, Imm: 1},
		{Op: isa.ADD, Rd: 2, Ra: 2, Rb: 1},
		{Op: isa.BNE, Ra: 1, Imm: isa.BranchDisp(0x77010, 0x77000)},
	}
	b := Block{Insts: seq}
	cb1 := Compile(b, 0x77000)
	if cb1 == nil {
		t.Fatal("Compile refused a well-formed block")
	}
	if cb2 := Compile(b, 0x77000); cb2 != cb1 {
		t.Fatal("identical content and entry did not hit the shared cache")
	}
	if cb3 := Compile(b, 0x88000); cb3 == cb1 {
		t.Fatal("different entry reused a chain with baked-in addresses")
	}
	mut := append([]isa.Inst(nil), seq...)
	mut[0].Imm = 2
	if cb4 := Compile(Block{Insts: mut}, 0x77000); cb4 == cb1 {
		t.Fatal("different content reused a stale chain")
	}

	// The real path: two independent caches over the same image share one
	// chain (the experiment harness runs the same program through dozens of
	// systems; each must not recompile from scratch).
	c1, c2 := NewBlockCache(0x77000), NewBlockCache(0x77000)
	c1.SetSource(seq, nil)
	c2.SetSource(seq, nil)
	_, j1, ok1 := c1.AtCompiled(0x77000, 0)
	_, j2, ok2 := c2.AtCompiled(0x77000, 0)
	if !ok1 || !ok2 || j1 == nil || j1 != j2 {
		t.Fatalf("independent caches did not share the chain: %p vs %p", j1, j2)
	}

	// Malformed shapes are refused.
	if Compile(Block{}, 0x1000) != nil {
		t.Fatal("compiled an empty block")
	}
	if Compile(Block{Insts: []isa.Inst{{Op: isa.HALT}}}, 0x1000) != nil {
		t.Fatal("compiled a non-member opcode")
	}
	notLast := []isa.Inst{
		{Op: isa.BNE, Ra: 1, Imm: isa.BranchDisp(0x1000, 0x1000)},
		{Op: isa.ADDI, Rd: 1, Ra: 1, Imm: 1},
	}
	if Compile(Block{Insts: notLast}, 0x1000) != nil {
		t.Fatal("compiled a block with a non-final branch")
	}
}

// TestAtCompiledPromotion pins the heat ramp: with threshold N the first N
// lookups interpret (cb nil), lookup N+1 compiles, and later lookups return
// the resident chain through both AtCompiled and the launch-hot CompiledAt.
func TestAtCompiledPromotion(t *testing.T) {
	seq := []isa.Inst{
		{Op: isa.ADDI, Rd: 1, Ra: 1, Imm: 1},
		{Op: isa.BNE, Ra: 1, Imm: isa.BranchDisp(0x99008, 0x99000)},
	}
	c := NewBlockCache(0x99000)
	c.SetSource(seq, nil)
	const threshold = 3
	for i := 0; i < threshold; i++ {
		if c.CompiledAt(0x99000) != nil {
			t.Fatalf("lookup %d: chain resident before promotion", i)
		}
		_, cb, ok := c.AtCompiled(0x99000, threshold)
		if !ok || cb != nil {
			t.Fatalf("lookup %d: ok=%v cb=%v, want warming (nil chain)", i, ok, cb)
		}
	}
	_, cb, ok := c.AtCompiled(0x99000, threshold)
	if !ok || cb == nil {
		t.Fatal("threshold-crossing lookup did not compile")
	}
	if got := c.Stats().Compiles; got != 1 {
		t.Fatalf("Compiles = %d, want 1", got)
	}
	if c.CompiledAt(0x99000) != cb {
		t.Fatal("CompiledAt does not see the promoted chain")
	}
	if _, again, _ := c.AtCompiled(0x99000, threshold); again != cb {
		t.Fatal("re-lookup recompiled instead of returning the resident chain")
	}
	if got := c.Stats().Compiles; got != 1 {
		t.Fatalf("Compiles after re-lookup = %d, want still 1", got)
	}
}
