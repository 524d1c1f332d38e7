package cpu

import (
	"math"
	"testing"

	"tridentsp/internal/branchpred"
	"tridentsp/internal/isa"
	"tridentsp/internal/memsys"
	"tridentsp/internal/program"
)

// buildProgram assembles raw instructions into a Program at base 0x1000.
func buildProgram(t *testing.T, insts []isa.Inst) *program.Program {
	t.Helper()
	code := make([]uint64, len(insts))
	for i, in := range insts {
		w, err := isa.EncodeChecked(in)
		if err != nil {
			t.Fatalf("inst %d: %v", i, err)
		}
		code[i] = w
	}
	return &program.Program{
		Base: 0x1000, Code: code, Entry: 0x1000,
		Data: &program.Memory{}, Name: "blocks-test",
	}
}

func newTestThread(p *program.Program) (*Thread, *ProgramSpace) {
	ps := NewProgramSpace(p)
	th := New(DefaultConfig(), ps, p.Entry, program.NewMemory(p),
		memsys.New(memsys.DefaultConfig()), branchpred.New(branchpred.DefaultConfig()))
	return th, ps
}

// TestExecBlockMatchesStep drives the same instruction sequence through the
// one-step interpreter and through block execution and requires identical
// architectural and timing state, including taint (observable through LD
// stall classification in real runs, compared here directly).
func TestExecBlockMatchesStep(t *testing.T) {
	seq := []isa.Inst{
		{Op: isa.LDI, Rd: 1, Imm: 7},
		{Op: isa.LDI, Rd: 2, Imm: 9},
		{Op: isa.ADD, Rd: 3, Ra: 1, Rb: 2},
		{Op: isa.MUL, Rd: 4, Ra: 3, Rb: 3},
		{Op: isa.SUBI, Rd: 4, Ra: 4, Imm: 5},
		{Op: isa.LDIH, Rd: 5, Ra: 1, Imm: 0x1234},
		{Op: isa.SLL, Rd: 6, Ra: 2, Rb: 1},
		{Op: isa.CMPLT, Rd: 7, Ra: 4, Rb: 6},
		{Op: isa.MOVE, Rd: 8, Ra: 7},
		{Op: isa.XORI, Rd: 9, Ra: 8, Imm: 0xff},
		{Op: isa.FADD, Rd: 10, Ra: 9, Rb: 4},
		{Op: isa.FMUL, Rd: 11, Ra: 10, Rb: 2},
		{Op: isa.NOP},
		{Op: isa.LDA, Rd: 12, Ra: 11, Imm: 64},
		{Op: isa.CMPEQI, Rd: 13, Ra: 12, Imm: 3},
		{Op: isa.HALT},
	}
	p := buildProgram(t, seq)

	ref, _ := newTestThread(p)
	for !ref.Halted() {
		ref.Step()
	}

	th, ps := newTestThread(p)
	blk, ok := ps.BlockAt(th.PC())
	if !ok {
		t.Fatal("no block at entry")
	}
	if want := len(seq) - 1; len(blk.Insts) != want {
		t.Fatalf("block length %d, want %d (everything before HALT)", len(blk.Insts), want)
	}
	ex := th.ExecSuperBlock(blk, math.MaxUint64, math.MaxInt64, nil)
	if ex.N != len(blk.Insts) || ex.Weight != uint64(ex.N) {
		t.Fatalf("ExecSuperBlock retired %d (weight %d), want %d", ex.N, ex.Weight, len(blk.Insts))
	}
	th.Step() // the HALT

	if !th.Halted() {
		t.Fatal("thread did not halt")
	}
	if th.Now() != ref.Now() {
		t.Errorf("cycle diverged: block %d, step %d", th.Now(), ref.Now())
	}
	if th.Committed() != ref.Committed() {
		t.Errorf("committed diverged: block %d, step %d", th.Committed(), ref.Committed())
	}
	for r := isa.Reg(0); r < isa.NumRegs; r++ {
		if th.Reg(r) != ref.Reg(r) {
			t.Errorf("r%d diverged: block %#x, step %#x", r, th.Reg(r), ref.Reg(r))
		}
		if th.taintSrc[r] != ref.taintSrc[r] {
			t.Errorf("taint[r%d] diverged: block %#x, step %#x", r, th.taintSrc[r], ref.taintSrc[r])
		}
	}
}

// TestExecBlockStopsAtBudgetAndHorizon pins the stop semantics: the final
// retired instruction is exactly the one whose commit crossed the weight
// budget or the cycle horizon, never one earlier or later.
func TestExecBlockStopsAtBudgetAndHorizon(t *testing.T) {
	var seq []isa.Inst
	for i := 0; i < 32; i++ {
		seq = append(seq, isa.Inst{Op: isa.ADDI, Rd: 1, Ra: 1, Imm: 1})
	}
	seq = append(seq, isa.Inst{Op: isa.HALT})
	p := buildProgram(t, seq)

	th, ps := newTestThread(p)
	blk, _ := ps.BlockAt(th.PC())
	ex := th.ExecSuperBlock(blk, 5, math.MaxInt64, nil)
	if ex.N != 5 || ex.Weight != 5 {
		t.Fatalf("budget stop: retired %d (weight %d), want 5", ex.N, ex.Weight)
	}
	if got := th.Reg(1); got != 5 {
		t.Fatalf("r1 = %d after 5 adds, want 5", got)
	}

	// Horizon stop: with IssueWidth 4, instruction k commits at cycle
	// ceil(k/4); horizon 2 is crossed by the 8th remaining instruction
	// (committed count 13 total => Now()==3... computed against the
	// reference below instead of by hand).
	th2, ps2 := newTestThread(p)
	ref, _ := newTestThread(p)
	horizon := int64(3)
	steps := 0
	for ref.Now() < horizon {
		ref.Step()
		steps++
	}
	blk2, _ := ps2.BlockAt(th2.PC())
	ex2 := th2.ExecSuperBlock(blk2, math.MaxUint64, horizon, nil)
	if ex2.N != steps {
		t.Fatalf("horizon stop after %d instructions, reference loop stopped after %d", ex2.N, steps)
	}
	if th2.Now() != ref.Now() {
		t.Fatalf("horizon stop cycle %d, reference %d", th2.Now(), ref.Now())
	}
}

// TestBlockCacheMidRunPatch is the block-invalidation contract test: patch
// an instruction mid-run — after its block descriptor has been built and
// partially executed — and assert the rewritten instruction is what executes
// next.
func TestBlockCacheMidRunPatch(t *testing.T) {
	seq := []isa.Inst{
		{Op: isa.ADDI, Rd: 1, Ra: 1, Imm: 1}, // 0x1000
		{Op: isa.ADDI, Rd: 1, Ra: 1, Imm: 1}, // 0x1008
		{Op: isa.ADDI, Rd: 2, Ra: 2, Imm: 2}, // 0x1010 <- patched mid-run
		{Op: isa.ADDI, Rd: 3, Ra: 3, Imm: 3}, // 0x1018
		{Op: isa.HALT},
	}
	p := buildProgram(t, seq)
	th, ps := newTestThread(p)

	// Build and run the first two instructions of the 4-instruction block.
	blk, ok := ps.BlockAt(0x1000)
	if !ok || len(blk.Insts) != 4 {
		t.Fatalf("block at entry: ok=%v len=%d, want 4", ok, len(blk.Insts))
	}
	if ex := th.ExecSuperBlock(blk, 2, math.MaxInt64, nil); ex.N != 2 {
		t.Fatalf("retired %d, want 2", ex.N)
	}
	if th.PC() != 0x1010 {
		t.Fatalf("pc = %#x, want 0x1010", th.PC())
	}

	// Mid-run rewrite of the next instruction (the self-repair primitive is
	// exactly this: an in-place immediate/word rewrite of placed code).
	w, err := isa.EncodeChecked(isa.Inst{Op: isa.LDI, Rd: 2, Imm: 99})
	if err != nil {
		t.Fatal(err)
	}
	if err := ps.Patch(0x1010, w); err != nil {
		t.Fatal(err)
	}

	// The stale descriptor must be gone: the new block starts with the
	// rewritten instruction, and executing it yields the new semantics.
	blk2, ok := ps.BlockAt(th.PC())
	if !ok {
		t.Fatal("no block after patch")
	}
	if blk2.Insts[0].Op != isa.LDI || blk2.Insts[0].Imm != 99 {
		t.Fatalf("block not invalidated: first inst %+v", blk2.Insts[0])
	}
	if ex := th.ExecSuperBlock(blk2, 1, math.MaxInt64, nil); ex.N != 1 {
		t.Fatal("patched instruction did not execute")
	}
	if got := th.Reg(2); got != 99 {
		t.Fatalf("r2 = %d after patched LDI, want 99 (stale block executed)", got)
	}

	// Patching an eligible word into an ineligible one must split the run.
	hw, _ := isa.EncodeChecked(isa.Inst{Op: isa.HALT})
	if err := ps.Patch(0x1018, hw); err != nil {
		t.Fatal(err)
	}
	if _, ok := ps.BlockAt(0x1018); ok {
		t.Fatal("block descriptor survived a patch to an ineligible opcode")
	}
	if blk3, ok := ps.BlockAt(0x1000); !ok || len(blk3.Insts) != 3 {
		t.Fatalf("run not re-split after patch: ok=%v len=%d, want 3", ok, len(blk3.Insts))
	}
}

// TestBlockMembership pins the opcode partition: stall-charging and
// indirect-control ops must never enter a superblock; memory ops and
// conditional branches are members with their own kinds (the executor
// relies on branches only ever appearing via memberBranch, i.e. last).
func TestBlockMembership(t *testing.T) {
	excluded := []isa.Op{isa.FDIV, isa.BR, isa.JMP, isa.HALT}
	for _, op := range excluded {
		if blockMember(op) != memberNo {
			t.Errorf("%v must not be a block member", op)
		}
	}
	plain := []isa.Op{
		isa.NOP, isa.ADD, isa.SUB, isa.MUL, isa.AND, isa.OR, isa.XOR,
		isa.SLL, isa.SRL, isa.CMPLT, isa.CMPEQ, isa.ADDI, isa.SUBI,
		isa.MULI, isa.ANDI, isa.ORI, isa.XORI, isa.SLLI, isa.SRLI,
		isa.CMPLTI, isa.CMPEQI, isa.LDA, isa.MOVE, isa.LDI, isa.LDIH,
		isa.FADD, isa.FMUL,
	}
	for _, op := range plain {
		if blockMember(op) != memberPlain {
			t.Errorf("%v must be a plain block member", op)
		}
	}
	for _, op := range []isa.Op{isa.LD, isa.LDNF, isa.ST, isa.PREFETCH} {
		if blockMember(op) != memberMem {
			t.Errorf("%v must be a memory block member", op)
		}
	}
	for _, op := range []isa.Op{isa.BEQ, isa.BNE, isa.BLT, isa.BGE} {
		if blockMember(op) != memberBranch {
			t.Errorf("%v must be a branch block member", op)
		}
	}
}

// TestExecBlockInterference pins the issue-tax accounting: a block executed
// under helper-thread interference charges the same inflated issue cost the
// one-step loop does.
func TestExecBlockInterference(t *testing.T) {
	var seq []isa.Inst
	for i := 0; i < 16; i++ {
		seq = append(seq, isa.Inst{Op: isa.ADDI, Rd: 1, Ra: 1, Imm: 1})
	}
	seq = append(seq, isa.Inst{Op: isa.HALT})
	p := buildProgram(t, seq)

	ref, _ := newTestThread(p)
	ref.SetInterference(true)
	for !ref.Halted() {
		ref.Step()
	}

	th, ps := newTestThread(p)
	th.SetInterference(true)
	blk, _ := ps.BlockAt(th.PC())
	th.ExecSuperBlock(blk, math.MaxUint64, math.MaxInt64, nil)
	th.Step()
	if th.Now() != ref.Now() {
		t.Fatalf("interfering cycle count %d, reference %d", th.Now(), ref.Now())
	}
}

// TestBlockCacheRegrowthReuse pins the SetSource regrowth contract. A trace
// placement appends to the code-cache image and re-points the block cache at
// the grown slice; word indices below the old length are unchanged, so a
// compiled chain whose content survived must be revalidated and reused — not
// recompiled, and (the old regrowth-pinning bug) not silently served stale
// from a recycled entry array. Changed content must recompile, and truncation
// must drop the tail outright.
func TestBlockCacheRegrowthReuse(t *testing.T) {
	mk := func(n int) []isa.Inst {
		// A branch-terminated block so appending afterwards can't extend it.
		insts := []isa.Inst{
			{Op: isa.ADDI, Rd: 1, Ra: 1, Imm: 1},
			{Op: isa.ADDI, Rd: 2, Ra: 2, Imm: 2},
			{Op: isa.BEQ, Ra: 1, Rb: 2, Imm: -2},
		}
		for i := 0; i < n; i++ {
			insts = append(insts, isa.Inst{Op: isa.ADDI, Rd: 3, Ra: 3, Imm: 1})
		}
		return insts
	}

	c := NewBlockCache(0)
	c.SetSource(mk(0), nil)
	_, cb1, ok := c.AtCompiled(0, 0) // threshold 0: compile on first use
	if !ok || cb1 == nil {
		t.Fatalf("initial compile: ok=%v cb=%v", ok, cb1)
	}
	base := c.Stats()

	// Append-style regrowth: same prefix content, longer image.
	c.SetSource(mk(5), nil)
	if got := c.CompiledAt(0); got != nil {
		t.Fatal("CompiledAt served a gen-stale chain without revalidation")
	}
	_, cb2, ok := c.AtCompiled(0, 0)
	if !ok || cb2 != cb1 {
		t.Fatalf("regrowth reuse: ok=%v cb2=%p want %p (revalidated chain)", ok, cb2, cb1)
	}
	s := c.Stats()
	if s.Revalidations != base.Revalidations+1 {
		t.Fatalf("Revalidations = %d, want %d", s.Revalidations, base.Revalidations+1)
	}
	if s.Compiles != base.Compiles {
		t.Fatalf("Compiles = %d, want %d (reuse must not recompile)", s.Compiles, base.Compiles)
	}
	if got := c.CompiledAt(0); got != cb1 {
		t.Fatalf("CompiledAt after revalidation = %p, want %p", got, cb1)
	}

	// A block past the old image length must be compilable: the entry arrays
	// must cover the grown image (the regrowth-pinning bug left them at the
	// old length).
	tailPC := uint64(3) * isa.WordSize
	if _, cbT, ok := c.AtCompiled(tailPC, 0); !ok || cbT == nil {
		t.Fatalf("appended-region compile: ok=%v cb=%v", ok, cbT)
	}

	// Changed content at the same index must recompile, not reuse.
	changed := mk(5)
	changed[1].Imm = 99
	c.SetSource(changed, nil)
	_, cb3, ok := c.AtCompiled(0, 0)
	if !ok || cb3 == nil {
		t.Fatal("recompile after content change failed")
	}
	if cb3 == cb1 {
		t.Fatal("changed-content block reused the stale chain")
	}
	s2 := c.Stats()
	if s2.Revalidations != s.Revalidations {
		t.Fatalf("changed content revalidated: %d, want %d", s2.Revalidations, s.Revalidations)
	}

	// Truncation drops the carried tail; lookups past the new end miss clean.
	c.SetSource(mk(5)[:2], nil)
	if got := c.CompiledAt(tailPC); got != nil {
		t.Fatal("truncated tail still served a compiled chain")
	}
	if _, _, ok := c.AtCompiled(tailPC, 0); ok {
		t.Fatal("AtCompiled past truncated end reported ok")
	}
}
