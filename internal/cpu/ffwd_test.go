package cpu

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"tridentsp/internal/branchpred"
	"tridentsp/internal/checkpoint"
	"tridentsp/internal/isa"
	"tridentsp/internal/memsys"
	"tridentsp/internal/program"
)

// Lockstep oracle for the functional executor: ExecFunctional(n) must leave
// the same architectural state as n Step calls over the same pristine image,
// and its warm mode must issue the probes the retired instruction stream
// implies, in order.

const ffBase = 0x1000

// ffAddr is the address of instruction word i.
func ffAddr(i int) uint64 { return ffBase + uint64(i)*isa.WordSize }

// ffBr is a PC-relative control instruction at word from targeting word to.
func ffBr(op isa.Op, rd, ra isa.Reg, from, to int) isa.Inst {
	return isa.Inst{Op: op, Rd: rd, Ra: ra, Imm: int64(to - from - 1)}
}

// ffEveryOpKernel runs three iterations of a loop that holds every opcode:
// the ALU and FP forms (FDIV by zero included), loads of written, image and
// never-mapped words, LDNF on mapped and unmapped addresses, writes to r31,
// a linking BR over a HALT, a linking JMP to an unaligned target, and every
// conditional branch both taken and not taken. It ends at HALT.
func ffEveryOpKernel() []isa.Inst {
	k := []isa.Inst{
		{Op: isa.LDI, Rd: 1, Imm: 0x4000}, // 0 base pointer
		{Op: isa.LDI, Rd: 2, Imm: 3},      // 1 counter
		{Op: isa.NOP},                     // 2
		// loop (word 3)
		{Op: isa.ADD, Rd: 3, Ra: 1, Rb: 2},
		{Op: isa.SUB, Rd: 4, Ra: 3, Rb: 2},
		{Op: isa.MUL, Rd: 5, Ra: 4, Rb: 2},
		{Op: isa.AND, Rd: 6, Ra: 5, Rb: 3},
		{Op: isa.OR, Rd: 7, Ra: 6, Rb: 2},
		{Op: isa.XOR, Rd: 8, Ra: 7, Rb: 3},
		{Op: isa.SLL, Rd: 9, Ra: 8, Rb: 2},
		{Op: isa.SRL, Rd: 10, Ra: 9, Rb: 2},
		{Op: isa.CMPLT, Rd: 11, Ra: 2, Rb: 9},
		{Op: isa.CMPEQ, Rd: 12, Ra: 2, Rb: 2},
		{Op: isa.ADDI, Rd: 13, Ra: 12, Imm: 5},
		{Op: isa.SUBI, Rd: 13, Ra: 13, Imm: 9},
		{Op: isa.MULI, Rd: 14, Ra: 13, Imm: -3},
		{Op: isa.ANDI, Rd: 15, Ra: 14, Imm: 0xff},
		{Op: isa.ORI, Rd: 15, Ra: 15, Imm: 0x100},
		{Op: isa.XORI, Rd: 16, Ra: 15, Imm: 0x55},
		{Op: isa.SLLI, Rd: 16, Ra: 16, Imm: 3},
		{Op: isa.SRLI, Rd: 17, Ra: 16, Imm: 2},
		{Op: isa.CMPLTI, Rd: 18, Ra: 17, Imm: 100},
		{Op: isa.CMPEQI, Rd: 19, Ra: 2, Imm: 1},
		{Op: isa.LDA, Rd: 20, Ra: 1, Imm: 16},
		{Op: isa.MOVE, Rd: 21, Ra: 20},
		{Op: isa.LDIH, Rd: 22, Ra: 2, Imm: 0x1234},
		{Op: isa.ST, Ra: 1, Rb: 22, Imm: 0},
		{Op: isa.LD, Rd: 23, Ra: 1, Imm: 0},        // written this iteration
		{Op: isa.LD, Rd: 24, Ra: 1, Imm: 0x1000},   // data image word
		{Op: isa.LD, Rd: 24, Ra: 24, Imm: 0x40000}, // never mapped: reads 0
		{Op: isa.LDNF, Rd: 25, Ra: 1, Imm: 0},
		{Op: isa.LDNF, Rd: 25, Ra: 1, Imm: 0x100000}, // unmapped: yields 0
		{Op: isa.PREFETCH, Ra: 1, Imm: 256},
		{Op: isa.FADD, Rd: 26, Ra: 23, Rb: 2},
		{Op: isa.FMUL, Rd: 26, Ra: 26, Rb: 2},
		{Op: isa.FDIV, Rd: 27, Ra: 26, Rb: 2},
		{Op: isa.FDIV, Rd: 27, Ra: 26, Rb: isa.ZeroReg}, // by zero
		{Op: isa.ADD, Rd: isa.ZeroReg, Ra: 2, Rb: 2},    // discarded
		{Op: isa.LD, Rd: isa.ZeroReg, Ra: 1, Imm: 0},    // discarded
		{Op: isa.ST, Ra: 1, Rb: isa.ZeroReg, Imm: 8},    // stores 0
		{Op: isa.ADDI, Rd: 1, Ra: 1, Imm: 8},
	}
	brAt := len(k)
	k = append(k,
		ffBr(isa.BR, 28, 0, brAt, brAt+2),                             // links, skips the HALT
		isa.Inst{Op: isa.HALT},                                        // never reached
		isa.Inst{Op: isa.LDI, Rd: 29, Imm: int64(ffAddr(brAt+5) | 5)}, // unaligned
		isa.Inst{Op: isa.JMP, Rd: 30, Ra: 29},                         // masks to brAt+5
		isa.Inst{Op: isa.HALT},                                        // never reached
		ffBr(isa.BR, isa.ZeroReg, 0, brAt+5, brAt+6),                  // no link
	)
	condAt := len(k)
	k = append(k,
		ffBr(isa.BEQ, 0, 19, condAt, condAt+2), // taken on the last iteration
		isa.Inst{Op: isa.NOP},
		ffBr(isa.BLT, 0, 2, condAt+2, condAt+3),        // never taken
		ffBr(isa.BGE, 0, 2, condAt+3, condAt+5),        // always taken
		isa.Inst{Op: isa.JMP, Rd: isa.ZeroReg, Ra: 31}, // skipped: would leave the image
		isa.Inst{Op: isa.SUBI, Rd: 2, Ra: 2, Imm: 1},
	)
	tail := len(k)
	return append(k,
		ffBr(isa.BNE, 0, 2, tail, 3),
		isa.Inst{Op: isa.HALT},
	)
}

// ffCase is one lockstep program: its image, an optional entry override,
// and whether every opcode must appear in it.
type ffCase struct {
	name    string
	insts   []isa.Inst
	entry   uint64 // 0 = ffBase
	everyOp bool
}

func ffCases() []ffCase {
	return []ffCase{
		{name: "every-opcode", insts: ffEveryOpKernel(), everyOp: true},
		{name: "unknown-opcode", insts: []isa.Inst{
			{Op: isa.LDI, Rd: 1, Imm: 4},
			{Op: isa.Op(200), Rd: 2},
			{Op: isa.LDI, Rd: 3, Imm: 5},
		}},
		{name: "fall-off-end", insts: []isa.Inst{
			{Op: isa.LDI, Rd: 1, Imm: 4},
			{Op: isa.ADDI, Rd: 1, Ra: 1, Imm: 1},
			{Op: isa.ST, Ra: 1, Rb: 1, Imm: 0x4000},
		}},
		{name: "br-past-end", insts: []isa.Inst{
			{Op: isa.LDI, Rd: 1, Imm: 4},
			ffBr(isa.BR, 2, 0, 1, 40),
			{Op: isa.HALT},
		}},
		{name: "br-below-base", insts: []isa.Inst{
			{Op: isa.LDI, Rd: 1, Imm: 4},
			ffBr(isa.BR, 0, 0, 1, -3),
			{Op: isa.HALT},
		}},
		{name: "cond-br-out", insts: []isa.Inst{
			{Op: isa.LDI, Rd: 1, Imm: 1},
			ffBr(isa.BNE, 0, 1, 1, 1000),
			{Op: isa.HALT},
		}},
		{name: "jmp-out", insts: []isa.Inst{
			{Op: isa.LDI, Rd: 1, Imm: 0x100},
			{Op: isa.JMP, Rd: 2, Ra: 1},
			{Op: isa.HALT},
		}},
		{name: "jmp-unaligned-in-image", insts: []isa.Inst{
			{Op: isa.LDI, Rd: 1, Imm: int64(ffAddr(3) + 7)},
			{Op: isa.JMP, Rd: 2, Ra: 1},
			{Op: isa.HALT},
			{Op: isa.LDI, Rd: 3, Imm: 9},
			{Op: isa.HALT},
		}},
		{name: "unaligned-entry", entry: ffAddr(1) + 4, insts: []isa.Inst{
			{Op: isa.LDI, Rd: 1, Imm: 4},
			{Op: isa.HALT},
		}},
		{name: "entry-outside", entry: ffAddr(9), insts: []isa.Inst{
			{Op: isa.HALT},
		}},
		{name: "infinite-loop", insts: []isa.Inst{
			{Op: isa.LDI, Rd: 1, Imm: 0x4000},
			{Op: isa.ST, Ra: 1, Rb: 1, Imm: 0},
			{Op: isa.LD, Rd: 3, Ra: 1, Imm: 0},
			{Op: isa.ADDI, Rd: 1, Ra: 1, Imm: 64},
			ffBr(isa.BR, 0, 0, 4, 1),
		}},
	}
}

// ffData builds the data image every case runs against.
func ffData() *program.Memory {
	m := &program.Memory{}
	m.Store(0x5000, 0x77)
	m.Store(0x5008, 0x99)
	return m
}

// ffThread builds a thread over insts (no encoding step, so unknown opcodes
// survive) at entry, with a private memory cloned from the data image.
func ffThread(insts []isa.Inst, entry uint64) *Thread {
	ps := &ProgramSpace{base: ffBase, insts: insts, blocks: NewBlockCache(ffBase)}
	p := &program.Program{Base: ffBase, Entry: ffBase, Data: ffData(), Name: "ffwd-test"}
	th := New(DefaultConfig(), ps, ffBase, program.NewMemory(p),
		memsys.New(memsys.DefaultConfig()), branchpred.New(branchpred.DefaultConfig()))
	if entry != 0 {
		th.SetPC(entry)
	}
	return th
}

// ffLoad is one observation of FFProbes.Load.
type ffLoad struct {
	pc, addr uint64
	l1Miss   bool
	now      int64
}

// ffWarm replays, from each retired Step, the warm probes functional
// execution issues: LD warms the hierarchy and reports to Load, LDNF and
// PREFETCH warm as prefetches, ST as a store, conditional branches train
// the predictor, and the pseudo-clock advances once per instruction.
type ffWarm struct {
	hier  *memsys.Hierarchy
	bp    *branchpred.Predictor
	now   int64
	loads []ffLoad
}

func newFFWarm(now int64) *ffWarm {
	return &ffWarm{hier: memsys.New(memsys.DefaultConfig()),
		bp: branchpred.New(branchpred.DefaultConfig()), now: now}
}

func (w *ffWarm) probes() *FFProbes {
	return &FFProbes{Hier: w.hier, BP: w.bp, Now: w.now,
		Load: func(pc, addr uint64, l1Miss bool, now int64) {
			w.loads = append(w.loads, ffLoad{pc, addr, l1Miss, now})
		}}
}

func (w *ffWarm) retire(pc uint64, in isa.Inst, addr uint64, info StepInfo) {
	switch in.Op {
	case isa.LD:
		miss := w.hier.WarmLoad(pc, addr, w.now)
		w.loads = append(w.loads, ffLoad{pc, addr, miss, w.now})
	case isa.LDNF, isa.PREFETCH:
		w.hier.WarmPrefetch(addr)
	case isa.ST:
		w.hier.WarmStore(addr)
	case isa.BEQ, isa.BNE, isa.BLT, isa.BGE:
		w.bp.Warm(pc, info.Branch == BranchTaken)
	}
	w.now++
}

// stepN advances th by up to n instructions with Step, counting the way
// ExecFunctional counts: HALT, an unknown opcode and a fetch fault halt the
// thread uncounted. w, when non-nil, receives each retired instruction.
func stepN(th *Thread, n uint64, w *ffWarm) uint64 {
	var done uint64
	for done < n && !th.Halted() {
		pc := th.PC()
		in, _ := th.code.Fetch(pc)
		addr := th.regs[in.Ra] + uint64(in.Imm) // before Step writes rd
		info := th.Step()
		if info.Halted {
			break
		}
		if w != nil {
			w.retire(pc, in, addr, info)
		}
		done++
	}
	return done
}

func ffSame(t *testing.T, where string, got, want *Thread, gotN, wantN uint64) {
	t.Helper()
	if gotN != wantN {
		t.Fatalf("%s: retired %d, Step retired %d", where, gotN, wantN)
	}
	if got.PC() != want.PC() || got.Halted() != want.Halted() {
		t.Fatalf("%s: pc %#x halted %v, Step pc %#x halted %v",
			where, got.PC(), got.Halted(), want.PC(), want.Halted())
	}
	if got.regs != want.regs {
		t.Fatalf("%s: registers\n got %v\nwant %v", where, got.regs, want.regs)
	}
	if g, w := got.mem.Snapshot(), want.mem.Snapshot(); !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: memory\n got %v\nwant %v", where, g, w)
	}
}

func ffWarmSame(t *testing.T, where string, got *FFProbes, gotLoads []ffLoad, want *ffWarm) {
	t.Helper()
	if got.Now != want.now {
		t.Fatalf("%s: pseudo-clock %d, want %d", where, got.Now, want.now)
	}
	if !reflect.DeepEqual(gotLoads, want.loads) {
		t.Fatalf("%s: Load sequence\n got %v\nwant %v", where, gotLoads, want.loads)
	}
	enc := func(save func(*checkpoint.Codec)) []byte {
		e := checkpoint.NewSaver()
		save(e)
		return e.Bytes()
	}
	if !bytes.Equal(enc(got.Hier.Checkpoint), enc(want.hier.Checkpoint)) {
		t.Fatalf("%s: warmed hierarchy differs", where)
	}
	if !bytes.Equal(enc(got.BP.Checkpoint), enc(want.bp.Checkpoint)) {
		t.Fatalf("%s: warmed predictor differs", where)
	}
}

// TestExecFunctionalLockstep drives every case through ExecFunctional and
// through Step, in one call with a large budget and in chunks of 0, 1 and
// mid-block budgets (each chunk resumes where the last stopped), in pure
// and warm mode, comparing registers, PC, halted flag, memory and retired
// count after every call, and in warm mode the Load callback sequence, the
// pseudo-clock and the warmed hierarchy and predictor.
func TestExecFunctionalLockstep(t *testing.T) {
	plans := map[string][]uint64{
		"one-call": {10_000},
		"chunked":  {0, 1, 2, 0, 5, 1, 17, 3, 0, 29, 1, 64, 1, 10_000},
	}
	for _, c := range ffCases() {
		if c.everyOp {
			seen := map[isa.Op]bool{}
			for _, in := range c.insts {
				seen[in.Op] = true
			}
			for op := isa.Op(0); op.Valid(); op++ {
				if !seen[op] {
					t.Fatalf("%s: opcode %v missing", c.name, op)
				}
			}
		}
		for plan, budgets := range plans {
			for _, warm := range []bool{false, true} {
				where := c.name + "/" + plan
				if warm {
					where += "/warm"
				}
				ref, ff := ffThread(c.insts, c.entry), ffThread(c.insts, c.entry)
				var wref, wff *ffWarm
				var probes *FFProbes
				if warm {
					wref, wff = newFFWarm(1000), newFFWarm(1000)
					probes = wff.probes()
				}
				var total uint64
				for i, b := range budgets {
					wantN := stepN(ref, b, wref)
					gotN := ff.ExecFunctional(c.insts, ffBase, b, probes)
					total += gotN
					at := fmt.Sprintf("%s/call%d", where, i)
					ffSame(t, at, ff, ref, gotN, wantN)
					if warm {
						ffWarmSame(t, at, probes, wff.loads, wref)
					}
				}
				if c.name == "infinite-loop" && total == 0 {
					t.Fatalf("%s: nothing retired", where)
				}
			}
		}
	}
}

// TestExecFunctionalHaltIsFinal: a halted thread retires nothing further and
// keeps its PC.
func TestExecFunctionalHaltIsFinal(t *testing.T) {
	insts := []isa.Inst{{Op: isa.LDI, Rd: 1, Imm: 3}, {Op: isa.HALT}}
	th := ffThread(insts, 0)
	if n := th.ExecFunctional(insts, ffBase, 10, nil); n != 1 || !th.Halted() || th.PC() != ffAddr(2) {
		t.Fatalf("first call: retired %d halted %v pc %#x", n, th.Halted(), th.PC())
	}
	if n := th.ExecFunctional(insts, ffBase, 10, nil); n != 0 || th.PC() != ffAddr(2) {
		t.Fatalf("after halt: retired %d pc %#x", n, th.PC())
	}
}
