package cpu

import (
	"testing"

	"tridentsp/internal/branchpred"
	"tridentsp/internal/isa"
	"tridentsp/internal/memsys"
	"tridentsp/internal/program"
)

func run(t *testing.T, build func(b *program.Builder)) (*Thread, *program.Program) {
	t.Helper()
	b := program.NewBuilder("t", 0x1000, 0x100000)
	build(b)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	th := New(DefaultConfig(), NewProgramSpace(p), p.Entry, program.NewMemory(p),
		memsys.New(memsys.DefaultConfig()), branchpred.New(branchpred.DefaultConfig()))
	for i := 0; i < 1_000_000 && !th.Halted(); i++ {
		th.Step()
	}
	if !th.Halted() {
		t.Fatal("program did not halt")
	}
	return th, p
}

func TestArithmetic(t *testing.T) {
	th, _ := run(t, func(b *program.Builder) {
		b.Ldi(1, 6)
		b.Ldi(2, 7)
		b.Op(isa.MUL, 3, 1, 2)      // 42
		b.OpI(isa.ADDI, 4, 3, 58)   // 100
		b.OpI(isa.SUBI, 5, 4, 1)    // 99
		b.Op(isa.XOR, 6, 4, 4)      // 0
		b.OpI(isa.SLLI, 7, 1, 4)    // 96
		b.OpI(isa.SRLI, 8, 7, 3)    // 12
		b.Op(isa.CMPLT, 9, 1, 2)    // 1
		b.Op(isa.CMPEQ, 10, 1, 2)   // 0
		b.OpI(isa.CMPLTI, 11, 1, 7) // 1
		b.Op(isa.AND, 12, 3, 2)     // 42 & 7 = 2
		b.Op(isa.OR, 13, 1, 2)      // 7
		b.Halt()
	})
	want := map[isa.Reg]uint64{
		3: 42, 4: 100, 5: 99, 6: 0, 7: 96, 8: 12, 9: 1, 10: 0, 11: 1, 12: 2, 13: 7,
	}
	for r, v := range want {
		if got := th.Reg(r); got != v {
			t.Errorf("r%d = %d, want %d", r, got, v)
		}
	}
}

func TestSignedCompareAndBranches(t *testing.T) {
	th, _ := run(t, func(b *program.Builder) {
		b.Ldi(1, ^uint64(0)) // -1
		b.Ldi(2, 1)
		b.Op(isa.CMPLT, 3, 1, 2) // -1 < 1 => 1
		// Count down from 5.
		b.Ldi(4, 5)
		b.Ldi(5, 0)
		b.Label("loop")
		b.OpI(isa.ADDI, 5, 5, 1)
		b.OpI(isa.SUBI, 4, 4, 1)
		b.CondBr(isa.BNE, 4, "loop")
		b.Halt()
	})
	if th.Reg(3) != 1 {
		t.Errorf("signed compare failed: %d", th.Reg(3))
	}
	if th.Reg(5) != 5 {
		t.Errorf("loop executed %d times, want 5", th.Reg(5))
	}
}

func TestLoadStoreRoundTrip(t *testing.T) {
	th, _ := run(t, func(b *program.Builder) {
		arr := b.AllocWords(11, 22, 33)
		b.Ldi(1, arr)
		b.Ld(2, 1, 8) // 22
		b.OpI(isa.ADDI, 2, 2, 1)
		b.St(2, 1, 16) // arr[2] = 23
		b.Ld(3, 1, 16)
		b.Halt()
	})
	if th.Reg(2) != 23 || th.Reg(3) != 23 {
		t.Errorf("load/store: r2=%d r3=%d, want 23", th.Reg(2), th.Reg(3))
	}
}

func TestLDNFInvalidAddressReadsZero(t *testing.T) {
	th, _ := run(t, func(b *program.Builder) {
		arr := b.AllocWords(77)
		b.Ldi(1, arr)
		b.Emit(isa.Inst{Op: isa.LDNF, Rd: 2, Ra: 1})            // valid -> 77
		b.Emit(isa.Inst{Op: isa.LDNF, Rd: 3, Ra: 1, Imm: 8192}) // unmapped -> 0
		b.Halt()
	})
	if th.Reg(2) != 77 {
		t.Errorf("LDNF valid = %d, want 77", th.Reg(2))
	}
	if th.Reg(3) != 0 {
		t.Errorf("LDNF invalid = %d, want 0", th.Reg(3))
	}
}

func TestZeroRegisterHardwired(t *testing.T) {
	th, _ := run(t, func(b *program.Builder) {
		b.Ldi(isa.ZeroReg, 99)
		b.OpI(isa.ADDI, 1, isa.ZeroReg, 5)
		b.Halt()
	})
	if th.Reg(isa.ZeroReg) != 0 {
		t.Error("zero register was written")
	}
	if th.Reg(1) != 5 {
		t.Errorf("r1 = %d, want 5", th.Reg(1))
	}
}

func TestJmpIndirect(t *testing.T) {
	th, _ := run(t, func(b *program.Builder) {
		b.Ldi(1, 0x1000+5*8)                        // address of the target instruction
		b.Emit(isa.Inst{Op: isa.JMP, Rd: 2, Ra: 1}) // link in r2
		b.Ldi(3, 111)                               // skipped
		b.Halt()                                    // skipped
		b.Nop()                                     // filler (index 4)
		b.Ldi(4, 222)                               // index 5: jump target
		b.Halt()
	})
	if th.Reg(3) == 111 {
		t.Error("JMP fell through")
	}
	if th.Reg(4) != 222 {
		t.Error("JMP did not reach target")
	}
	if th.Reg(2) != 0x1000+2*8 {
		t.Errorf("JMP link = %#x, want %#x", th.Reg(2), 0x1000+2*8)
	}
}

func TestBranchLinkBR(t *testing.T) {
	th, _ := run(t, func(b *program.Builder) {
		b.Emit(isa.Inst{Op: isa.BR, Rd: 5, Imm: 1}) // skip next, link r5
		b.Halt()
		b.Halt()
	})
	if th.Reg(5) != 0x1000+8 {
		t.Errorf("BR link = %#x", th.Reg(5))
	}
}

func TestMoveAndLDIH(t *testing.T) {
	th, _ := run(t, func(b *program.Builder) {
		b.Ldi(1, 0xdead_beef_cafe_f00d)
		b.Op(isa.MOVE, 2, 1, 0)
		b.Halt()
	})
	if th.Reg(2) != 0xdead_beef_cafe_f00d {
		t.Errorf("move/ldih = %#x", th.Reg(2))
	}
}

func TestIssueCostFourWide(t *testing.T) {
	// 400 ALU instructions at width 4 should take about 100 cycles.
	th, _ := run(t, func(b *program.Builder) {
		for i := 0; i < 400; i++ {
			b.OpI(isa.ADDI, 1, 1, 1)
		}
		b.Halt()
	})
	now := th.Now()
	if now < 100 || now > 105 {
		t.Errorf("400 ALU ops took %d cycles, want ~100", now)
	}
}

func TestInterferenceSlowsIssue(t *testing.T) {
	build := func(b *program.Builder) {
		for i := 0; i < 400; i++ {
			b.OpI(isa.ADDI, 1, 1, 1)
		}
		b.Halt()
	}
	b := program.NewBuilder("t", 0x1000, 0x100000)
	build(b)
	p := b.MustBuild()
	th := New(DefaultConfig(), NewProgramSpace(p), p.Entry, program.NewMemory(p),
		memsys.New(memsys.DefaultConfig()), branchpred.New(branchpred.DefaultConfig()))
	th.SetInterference(true)
	for !th.Halted() {
		th.Step()
	}
	// +25% issue cost: ~125 cycles instead of ~100.
	if now := th.Now(); now < 123 || now > 130 {
		t.Errorf("interfering run took %d cycles, want ~125", now)
	}
}

func TestDemandMissStallsBeyondOverlap(t *testing.T) {
	b := program.NewBuilder("t", 0x1000, 0x100000)
	arr := b.Alloc(4096)
	b.Ldi(1, arr)
	b.Ld(2, 1, 0)
	b.Halt()
	p := b.MustBuild()
	cfg := DefaultConfig()
	th := New(cfg, NewProgramSpace(p), p.Entry, program.NewMemory(p),
		memsys.New(memsys.DefaultConfig()), branchpred.New(branchpred.DefaultConfig()))
	for !th.Halted() {
		th.Step()
	}
	// One independent cold miss: (350-48)/MLP(6) = 50 stall cycles plus
	// ~1 cycle of issue.
	if now := th.Now(); now < 50 || now > 54 {
		t.Errorf("cold-miss run took %d cycles, want ~51", now)
	}
}

func TestDependentMissPaysFullStall(t *testing.T) {
	// A pointer-chase load (base register produced by a load) cannot
	// overlap: it pays the full residual latency.
	b := program.NewBuilder("t", 0x1000, 0x100000)
	cell := b.AllocWords(0)
	far := b.Alloc(1<<20) + 512<<10 // distant line
	b.SetWord(cell, far)
	b.Ldi(1, cell)
	b.Ld(2, 1, 0) // independent miss: r2 <- &far
	b.Ld(3, 2, 0) // dependent miss: address from a load
	b.Halt()
	p := b.MustBuild()
	th := New(DefaultConfig(), NewProgramSpace(p), p.Entry, program.NewMemory(p),
		memsys.New(memsys.DefaultConfig()), branchpred.New(branchpred.DefaultConfig()))
	for !th.Halted() {
		th.Step()
	}
	// Independent miss ~50 + intra-iteration dependent (302/2=151) ≈ 203;
	// the second load's base derives from the first load (a different
	// PC), so it overlaps partially but not fully.
	if now := th.Now(); now < 196 || now > 215 {
		t.Errorf("chase run took %d cycles, want ~203", now)
	}
}

func TestLoopCarriedChasePaysFullStall(t *testing.T) {
	// p = p->next across iterations: the base derives from the same load
	// PC, a single serial chain with no overlap.
	b := program.NewBuilder("t", 0x1000, 0x100000)
	const nodes = 64
	arena := b.Alloc(nodes * 4096)
	for i := uint64(0); i < nodes-1; i++ {
		b.SetWord(arena+i*4096, arena+(i+1)*4096)
	}
	b.Ldi(1, arena)
	b.Ldi(4, nodes-1)
	b.Label("top")
	b.Ld(1, 1, 0)
	b.OpI(isa.SUBI, 4, 4, 1)
	b.CondBr(isa.BNE, 4, "top")
	b.Halt()
	p := b.MustBuild()
	th := New(DefaultConfig(), NewProgramSpace(p), p.Entry, program.NewMemory(p),
		memsys.New(memsys.DefaultConfig()), branchpred.New(branchpred.DefaultConfig()))
	for !th.Halted() {
		th.Step()
	}
	// First iteration's base is clean (LDI), the remaining 62 chases pay
	// the full ~302+bus-queue residual each.
	perIter := th.Now() / (nodes - 1)
	if perIter < 280 || perIter > 330 {
		t.Errorf("per-chase cost = %d cycles, want ~300", perIter)
	}
}

func TestLDNFActsAsPrefetch(t *testing.T) {
	// LDNF never stalls even on a cold miss, and starts a fill.
	b := program.NewBuilder("t", 0x1000, 0x100000)
	arr := b.AllocWords(123)
	b.Ldi(1, arr)
	b.Emit(isa.Inst{Op: isa.LDNF, Rd: 2, Ra: 1})
	b.Halt()
	p := b.MustBuild()
	h := memsys.New(memsys.DefaultConfig())
	th := New(DefaultConfig(), NewProgramSpace(p), p.Entry, program.NewMemory(p), h,
		branchpred.New(branchpred.DefaultConfig()))
	for !th.Halted() {
		th.Step()
	}
	if now := th.Now(); now > 4 {
		t.Errorf("LDNF stalled: %d cycles", now)
	}
	if th.Reg(2) != 123 {
		t.Errorf("LDNF value = %d", th.Reg(2))
	}
	if h.Stats.PrefetchesIssued != 1 {
		t.Errorf("LDNF did not issue a prefetch")
	}
}

func TestPrefetchDoesNotStall(t *testing.T) {
	b := program.NewBuilder("t", 0x1000, 0x100000)
	arr := b.Alloc(4096)
	b.Ldi(1, arr)
	b.Emit(isa.Inst{Op: isa.PREFETCH, Ra: 1})
	b.Halt()
	p := b.MustBuild()
	th := New(DefaultConfig(), NewProgramSpace(p), p.Entry, program.NewMemory(p),
		memsys.New(memsys.DefaultConfig()), branchpred.New(branchpred.DefaultConfig()))
	for !th.Halted() {
		th.Step()
	}
	if now := th.Now(); now > 3 {
		t.Errorf("prefetch stalled the thread: %d cycles", now)
	}
}

func TestMispredictPenaltyCharged(t *testing.T) {
	// A data-dependent unpredictable branch pattern must cost more than a
	// monotone one.
	loop := func(pattern func(i int) uint64) int64 {
		b := program.NewBuilder("t", 0x1000, 0x100000)
		arr := b.Alloc(8 * 256)
		b.Ldi(1, arr)
		b.Ldi(2, 256)
		b.Ldi(5, 0)
		b.Label("top")
		b.Ld(3, 1, 0)
		b.CondBr(isa.BEQ, 3, "skip")
		b.OpI(isa.ADDI, 5, 5, 1)
		b.Label("skip")
		b.OpI(isa.ADDI, 1, 1, 8)
		b.OpI(isa.SUBI, 2, 2, 1)
		b.CondBr(isa.BNE, 2, "top")
		b.Halt()
		p := b.MustBuild()
		for i := 0; i < 256; i++ {
			p.Data.Store(arr+uint64(i*8), pattern(i))
		}
		th := New(DefaultConfig(), NewProgramSpace(p), p.Entry, program.NewMemory(p),
			memsys.New(memsys.DefaultConfig()), branchpred.New(branchpred.DefaultConfig()))
		for !th.Halted() {
			th.Step()
		}
		return th.Now()
	}
	predictable := loop(func(i int) uint64 { return 1 })
	// Pseudo-random pattern.
	seed := uint64(88172645463325252)
	random := loop(func(i int) uint64 {
		seed ^= seed << 13
		seed ^= seed >> 7
		seed ^= seed << 17
		return seed & 1
	})
	if random <= predictable+20*50 {
		t.Errorf("unpredictable branches cost %d vs %d; expected large penalty gap", random, predictable)
	}
}

func TestStepAfterHaltIsIdempotent(t *testing.T) {
	b := program.NewBuilder("t", 0x1000, 0x100000)
	b.Halt()
	p := b.MustBuild()
	th := New(DefaultConfig(), NewProgramSpace(p), p.Entry, program.NewMemory(p),
		memsys.New(memsys.DefaultConfig()), branchpred.New(branchpred.DefaultConfig()))
	th.Step()
	n := th.Committed()
	info := th.Step()
	if !info.Halted || th.Committed() != n {
		t.Error("Step after halt advanced state")
	}
}

func TestFetchFaultHalts(t *testing.T) {
	b := program.NewBuilder("t", 0x1000, 0x100000)
	b.Ldi(1, 0x0)
	b.Emit(isa.Inst{Op: isa.JMP, Rd: isa.ZeroReg, Ra: 1}) // jump to 0: no code
	b.Halt()
	p := b.MustBuild()
	th := New(DefaultConfig(), NewProgramSpace(p), p.Entry, program.NewMemory(p),
		memsys.New(memsys.DefaultConfig()), branchpred.New(branchpred.DefaultConfig()))
	for i := 0; i < 10 && !th.Halted(); i++ {
		th.Step()
	}
	if !th.Halted() {
		t.Error("fetch fault did not halt thread")
	}
}

func TestStepInfoLoadFields(t *testing.T) {
	b := program.NewBuilder("t", 0x1000, 0x100000)
	arr := b.AllocWords(5)
	b.Ldi(1, arr)
	b.Ld(2, 1, 0)
	b.Halt()
	p := b.MustBuild()
	th := New(DefaultConfig(), NewProgramSpace(p), p.Entry, program.NewMemory(p),
		memsys.New(memsys.DefaultConfig()), branchpred.New(branchpred.DefaultConfig()))
	var loads int
	for !th.Halted() {
		info := th.Step()
		if info.IsLoad {
			loads++
			if info.LoadAddr != arr {
				t.Errorf("load addr = %#x, want %#x", info.LoadAddr, arr)
			}
			if info.LoadRes.Outcome != memsys.Miss {
				t.Errorf("cold load outcome = %v", info.LoadRes.Outcome)
			}
		}
	}
	if loads != 1 {
		t.Errorf("saw %d loads, want 1", loads)
	}
}

func TestProgramSpacePatch(t *testing.T) {
	b := program.NewBuilder("t", 0x1000, 0x100000)
	b.Nop()
	b.Halt()
	p := b.MustBuild()
	sp := NewProgramSpace(p)
	if err := sp.Patch(0x1000, isa.Encode(isa.Inst{Op: isa.LDI, Rd: 1, Imm: 9})); err != nil {
		t.Fatal(err)
	}
	in, ok := sp.Fetch(0x1000)
	if !ok || in.Op != isa.LDI || in.Imm != 9 {
		t.Fatalf("patched fetch = %v ok=%v", in, ok)
	}
	if err := sp.Patch(0x0ff0, 0); err == nil {
		t.Error("patch below base accepted")
	}
	if err := sp.Patch(0x1000+16, 0); err == nil {
		t.Error("patch past end accepted")
	}
	if err := sp.Patch(0x1001, 0); err == nil {
		t.Error("unaligned patch accepted")
	}
}
