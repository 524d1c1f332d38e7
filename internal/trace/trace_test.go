package trace

import (
	"testing"

	"tridentsp/internal/isa"
	"tridentsp/internal/program"
)

// buildLoop creates the canonical hot loop:
//
//	top:  ld   r2, 0(r1)
//	      add  r3, r3, r2
//	      addi r1, r1, 8
//	      subi r4, r4, 1
//	      bne  r4, top
//	      halt
func buildLoop(t *testing.T) *program.Program {
	t.Helper()
	b := program.NewBuilder("loop", 0x1000, 0x100000)
	b.Label("top")
	b.Ld(2, 1, 0)
	b.Op(isa.ADD, 3, 3, 2)
	b.OpI(isa.ADDI, 1, 1, 8)
	b.OpI(isa.SUBI, 4, 4, 1)
	b.CondBr(isa.BNE, 4, "top")
	b.Halt()
	return b.MustBuild()
}

func TestFormSimpleLoop(t *testing.T) {
	p := buildLoop(t)
	tr, err := Form(p, 0x1000, []bool{true}, DefaultFormConfig())
	if err != nil {
		t.Fatal(err)
	}
	// 4 body instructions + loop branch + exit jump.
	if tr.Len() != 6 {
		t.Fatalf("trace len = %d, want 6:\n%s", tr.Len(), tr)
	}
	if tr.Insts[4].Kind != LoopBranch || tr.Insts[4].Inst.Op != isa.BNE {
		t.Fatalf("loop branch wrong: %+v", tr.Insts[4])
	}
	if tr.Insts[5].Kind != ExitJump || tr.Insts[5].ExitTarget != 0x1000+5*8 {
		t.Fatalf("exit jump wrong: %+v", tr.Insts[5])
	}
	if w := tr.TotalWeight(); w != 5 {
		t.Fatalf("total weight = %d, want 5 (original loop body)", w)
	}
}

func TestFormInvertsTakenBranch(t *testing.T) {
	// A diamond where the hot path takes the branch: the trace must invert
	// it so the hot path falls through.
	b := program.NewBuilder("d", 0x1000, 0x100000)
	b.Label("top")
	b.CondBr(isa.BEQ, 1, "then") // hot: taken
	b.OpI(isa.ADDI, 2, 2, 1)     // cold
	b.Br("join")
	b.Label("then")
	b.OpI(isa.ADDI, 3, 3, 1) // hot
	b.Label("join")
	b.OpI(isa.SUBI, 4, 4, 1)
	b.CondBr(isa.BNE, 4, "top")
	b.Halt()
	p := b.MustBuild()

	tr, err := Form(p, 0x1000, []bool{true, true}, DefaultFormConfig())
	if err != nil {
		t.Fatal(err)
	}
	if tr.Insts[0].Kind != ExitBranch || tr.Insts[0].Inst.Op != isa.BNE {
		t.Fatalf("taken BEQ not inverted to BNE: %+v", tr.Insts[0])
	}
	if tr.Insts[0].ExitTarget != 0x1000+8 {
		t.Fatalf("inverted exit target = %#x, want fall-through %#x", tr.Insts[0].ExitTarget, 0x1000+8)
	}
	// Hot body: addi r3 then subi r4, loop branch, exit.
	if tr.Insts[1].Inst.Op != isa.ADDI || tr.Insts[1].Inst.Rd != 3 {
		t.Fatalf("hot-path instruction wrong: %+v", tr.Insts[1])
	}
}

func TestFormKeepsNotTakenBranch(t *testing.T) {
	b := program.NewBuilder("d", 0x1000, 0x100000)
	b.Label("top")
	b.CondBr(isa.BEQ, 1, "exitpath") // hot: not taken
	b.OpI(isa.SUBI, 4, 4, 1)
	b.CondBr(isa.BNE, 4, "top")
	b.Label("exitpath")
	b.Halt()
	p := b.MustBuild()

	tr, err := Form(p, 0x1000, []bool{false, true}, DefaultFormConfig())
	if err != nil {
		t.Fatal(err)
	}
	if tr.Insts[0].Kind != ExitBranch || tr.Insts[0].Inst.Op != isa.BEQ {
		t.Fatalf("not-taken branch altered: %+v", tr.Insts[0])
	}
	if tr.Insts[0].ExitTarget != 0x1000+3*8 {
		t.Fatalf("exit target = %#x", tr.Insts[0].ExitTarget)
	}
}

func TestFormStreamlinesUnconditionalBR(t *testing.T) {
	b := program.NewBuilder("s", 0x1000, 0x100000)
	b.Label("top")
	b.OpI(isa.ADDI, 1, 1, 1)
	b.Br("next")
	b.Nop() // skipped by BR
	b.Label("next")
	b.OpI(isa.ADDI, 2, 2, 1)
	b.Halt()
	p := b.MustBuild()

	tr, err := Form(p, 0x1000, nil, DefaultFormConfig())
	if err != nil {
		t.Fatal(err)
	}
	// BR streamlined away; its weight lands on the next instruction.
	ops := []isa.Op{}
	for _, ti := range tr.Insts {
		ops = append(ops, ti.Inst.Op)
	}
	want := []isa.Op{isa.ADDI, isa.ADDI, isa.HALT}
	if len(ops) != 3 || ops[0] != want[0] || ops[1] != want[1] || ops[2] != want[2] {
		t.Fatalf("ops = %v, want %v", ops, want)
	}
	if tr.Insts[1].Weight != 2 {
		t.Fatalf("streamlined BR weight not donated: %+v", tr.Insts[1])
	}
	if tr.TotalWeight() != 4 {
		t.Fatalf("total weight = %d, want 4", tr.TotalWeight())
	}
}

func TestFormEndsAtBitmapExhaustion(t *testing.T) {
	p := buildLoop(t)
	// No bits: the trace must stop at the first conditional branch with an
	// exit jump back to it.
	tr, err := Form(p, 0x1000, nil, DefaultFormConfig())
	if err != nil {
		t.Fatal(err)
	}
	last := tr.Insts[len(tr.Insts)-1]
	if last.Kind != ExitJump || last.ExitTarget != 0x1000+4*8 {
		t.Fatalf("bitmap-exhaustion exit wrong: %+v", last)
	}
	if tr.TotalWeight() != 4 {
		t.Fatalf("weight = %d, want 4", tr.TotalWeight())
	}
}

func TestFormMaxInstsCap(t *testing.T) {
	b := program.NewBuilder("big", 0x1000, 0x100000)
	b.Label("top")
	for i := 0; i < 100; i++ {
		b.OpI(isa.ADDI, 1, 1, 1)
	}
	b.Br("top")
	p := b.MustBuild()
	cfg := DefaultFormConfig()
	cfg.MaxInsts = 10
	tr, err := Form(p, 0x1000, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 11 { // 10 + exit jump
		t.Fatalf("capped trace len = %d", tr.Len())
	}
	if tr.Insts[10].Kind != ExitJump || tr.Insts[10].ExitTarget != 0x1000+10*8 {
		t.Fatalf("cap exit: %+v", tr.Insts[10])
	}
}

func TestFormBRWithLinkMaterializesLDI(t *testing.T) {
	b := program.NewBuilder("link", 0x1000, 0x100000)
	b.Emit(isa.Inst{Op: isa.BR, Rd: 7, Imm: 0}) // link to r7, fall through
	b.Halt()
	p := b.MustBuild()
	tr, err := Form(p, 0x1000, nil, DefaultFormConfig())
	if err != nil {
		t.Fatal(err)
	}
	if tr.Insts[0].Inst.Op != isa.LDI || tr.Insts[0].Inst.Rd != 7 ||
		tr.Insts[0].Inst.Imm != 0x1000+8 {
		t.Fatalf("link not materialized: %+v", tr.Insts[0])
	}
}

func TestFormOutsideCodeFails(t *testing.T) {
	p := buildLoop(t)
	if _, err := Form(p, 0x9000, nil, DefaultFormConfig()); err == nil {
		t.Fatal("formation outside code succeeded")
	}
}

func TestFormEndsAtJMPAndHalt(t *testing.T) {
	b := program.NewBuilder("j", 0x1000, 0x100000)
	b.OpI(isa.ADDI, 1, 1, 1)
	b.Emit(isa.Inst{Op: isa.JMP, Rd: isa.ZeroReg, Ra: 9})
	b.Halt()
	p := b.MustBuild()
	tr, err := Form(p, 0x1000, nil, DefaultFormConfig())
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 2 || tr.Insts[1].Inst.Op != isa.JMP {
		t.Fatalf("JMP should end trace: %s", tr)
	}
}

func mkTrace(insts ...Inst) *Trace {
	tr := &Trace{StartPC: 0x1000, Insts: insts}
	return tr
}

func norm(op isa.Op, rd, ra, rb isa.Reg, imm int64) Inst {
	return Inst{Inst: isa.Inst{Op: op, Rd: rd, Ra: ra, Rb: rb, Imm: imm}, Kind: Normal, Weight: 1}
}

func TestPropagateConstantsFoldsChain(t *testing.T) {
	tr := mkTrace(
		norm(isa.LDI, 1, 0, 0, 10),
		norm(isa.ADDI, 2, 1, 0, 5), // -> LDI 15
		norm(isa.MULI, 3, 2, 0, 2), // -> LDI 30
		norm(isa.ADD, 4, 2, 3, 0),  // -> LDI 45
		norm(isa.LD, 5, 4, 0, 0),   // not folded (memory)
		norm(isa.ADD, 6, 4, 5, 0),  // not folded (r5 unknown)
	)
	n := PropagateConstants(tr)
	if n != 3 {
		t.Fatalf("folded %d, want 3:\n%s", n, tr)
	}
	if tr.Insts[3].Inst.Op != isa.LDI || tr.Insts[3].Inst.Imm != 45 {
		t.Fatalf("fold result: %+v", tr.Insts[3].Inst)
	}
	if tr.Insts[5].Inst.Op != isa.ADD {
		t.Fatalf("unknown operand folded: %+v", tr.Insts[5].Inst)
	}
}

func TestPropagateConstantsStopsAtRedefinition(t *testing.T) {
	tr := mkTrace(
		norm(isa.LDI, 1, 0, 0, 10),
		norm(isa.LD, 1, 2, 0, 0),   // r1 clobbered by unknown
		norm(isa.ADDI, 3, 1, 0, 5), // must not fold
	)
	PropagateConstants(tr)
	if tr.Insts[2].Inst.Op != isa.ADDI {
		t.Fatalf("folded past clobber: %+v", tr.Insts[2].Inst)
	}
}

func TestRemoveRedundantBranchNeverTaken(t *testing.T) {
	tr := mkTrace(
		norm(isa.LDI, 1, 0, 0, 1),
		Inst{Inst: isa.Inst{Op: isa.BEQ, Ra: 1}, Kind: ExitBranch, ExitTarget: 0x2000, Weight: 1},
		norm(isa.ADDI, 2, 2, 0, 1),
	)
	if n := RemoveRedundantBranches(tr); n != 1 {
		t.Fatalf("removed %d, want 1", n)
	}
	if tr.Len() != 2 {
		t.Fatalf("len = %d\n%s", tr.Len(), tr)
	}
	if tr.TotalWeight() != 3 {
		t.Fatalf("weight = %d, want 3", tr.TotalWeight())
	}
}

func TestRemoveRedundantBranchAlwaysTaken(t *testing.T) {
	tr := mkTrace(
		norm(isa.LDI, 1, 0, 0, 0),
		Inst{Inst: isa.Inst{Op: isa.BEQ, Ra: 1}, Kind: ExitBranch, ExitTarget: 0x2000, Weight: 1},
		norm(isa.ADDI, 2, 2, 0, 1), // unreachable
	)
	RemoveRedundantBranches(tr)
	last := tr.Insts[len(tr.Insts)-1]
	if last.Kind != ExitJump || last.ExitTarget != 0x2000 {
		t.Fatalf("always-taken branch not rewritten: %+v", last)
	}
	if tr.Len() != 2 {
		t.Fatalf("unreachable tail kept: %s", tr)
	}
}

func TestOptimizePreservesWeight(t *testing.T) {
	p := buildLoop(t)
	tr, err := Form(p, 0x1000, []bool{true}, DefaultFormConfig())
	if err != nil {
		t.Fatal(err)
	}
	before := tr.TotalWeight()
	Optimize(tr)
	if tr.TotalWeight() != before {
		t.Fatalf("Optimize changed weight %d -> %d", before, tr.TotalWeight())
	}
	// The loop trace has no known constant to fold or branch to decide:
	// it must survive unchanged.
	if tr.Len() != 6 {
		t.Fatalf("loop trace mangled:\n%s", tr)
	}
}

func TestReadsWrites(t *testing.T) {
	cases := []struct {
		in     isa.Inst
		reads  []isa.Reg
		writes isa.Reg
		wOK    bool
	}{
		{isa.Inst{Op: isa.ADD, Rd: 1, Ra: 2, Rb: 3}, []isa.Reg{2, 3}, 1, true},
		{isa.Inst{Op: isa.LDI, Rd: 1, Imm: 5}, nil, 1, true},
		{isa.Inst{Op: isa.LD, Rd: 1, Ra: 2, Imm: 8}, []isa.Reg{2}, 1, true},
		{isa.Inst{Op: isa.ST, Rb: 3, Ra: 2, Imm: 8}, []isa.Reg{2, 3}, 0, false},
		{isa.Inst{Op: isa.PREFETCH, Ra: 2}, []isa.Reg{2}, 0, false},
		{isa.Inst{Op: isa.BEQ, Ra: 4}, []isa.Reg{4}, 0, false},
		{isa.Inst{Op: isa.JMP, Rd: 1, Ra: 2}, []isa.Reg{2}, 1, true},
		{isa.Inst{Op: isa.BR, Rd: isa.ZeroReg}, nil, 0, false},
		{isa.Inst{Op: isa.MOVE, Rd: 1, Ra: 2}, []isa.Reg{2}, 1, true},
	}
	for _, tc := range cases {
		got := Reads(tc.in)
		if len(got) != len(tc.reads) {
			t.Errorf("Reads(%v) = %v, want %v", tc.in, got, tc.reads)
			continue
		}
		for i := range got {
			if got[i] != tc.reads[i] {
				t.Errorf("Reads(%v) = %v, want %v", tc.in, got, tc.reads)
			}
		}
		rd, ok := Writes(tc.in)
		if ok != tc.wOK || (ok && rd != tc.writes) {
			t.Errorf("Writes(%v) = %v,%v, want %v,%v", tc.in, rd, ok, tc.writes, tc.wOK)
		}
	}
}

func TestCloneIndependent(t *testing.T) {
	tr := mkTrace(norm(isa.ADDI, 1, 1, 0, 1))
	c := tr.Clone()
	c.Insts[0].Inst.Imm = 99
	if tr.Insts[0].Inst.Imm != 1 {
		t.Fatal("Clone shares instruction storage")
	}
}
