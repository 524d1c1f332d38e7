package trace

import (
	"maps"
	"math/rand"
	"testing"

	"tridentsp/internal/isa"
)

// randTrace builds a random straight-line trace ending in an exit jump;
// used by the pass-invariant property tests.
func randTrace(r *rand.Rand) *Trace {
	tr := &Trace{StartPC: 0x1000}
	n := 4 + r.Intn(40)
	for i := 0; i < n; i++ {
		var in isa.Inst
		switch r.Intn(10) {
		case 0:
			// Zero and powers of two give ReduceKnownOperands work.
			imm := []int64{0, 1, 8, int64(r.Intn(1 << 12))}[r.Intn(4)]
			in = isa.Inst{Op: isa.LDI, Rd: isa.Reg(1 + r.Intn(12)), Imm: imm}
		case 1:
			in = isa.Inst{Op: isa.ADDI, Rd: isa.Reg(1 + r.Intn(12)), Ra: isa.Reg(1 + r.Intn(12)), Imm: int64(r.Intn(64))}
		case 2:
			in = isa.Inst{Op: isa.MULI, Rd: isa.Reg(1 + r.Intn(12)), Ra: isa.Reg(1 + r.Intn(12)), Imm: int64(r.Intn(16))}
		case 3:
			in = isa.Inst{Op: isa.LD, Rd: isa.Reg(1 + r.Intn(12)), Ra: isa.Reg(1 + r.Intn(12)), Imm: int64(r.Intn(8)) * 8}
		case 4:
			in = isa.Inst{Op: isa.ST, Rb: isa.Reg(1 + r.Intn(12)), Ra: isa.Reg(1 + r.Intn(12)), Imm: int64(r.Intn(8)) * 8}
		case 5:
			in = isa.Inst{Op: isa.ADD, Rd: isa.Reg(1 + r.Intn(12)), Ra: isa.Reg(1 + r.Intn(12)), Rb: isa.Reg(1 + r.Intn(12))}
		case 6:
			in = isa.Inst{Op: isa.NOP}
		case 7:
			in = isa.Inst{Op: isa.AND, Rd: isa.Reg(1 + r.Intn(12)), Ra: isa.Reg(1 + r.Intn(12)), Rb: isa.Reg(1 + r.Intn(12))}
		case 8:
			in = isa.Inst{Op: isa.MUL, Rd: isa.Reg(1 + r.Intn(12)), Ra: isa.Reg(1 + r.Intn(12)), Rb: isa.Reg(1 + r.Intn(12))}
		default:
			in = isa.Inst{Op: isa.MOVE, Rd: isa.Reg(1 + r.Intn(12)), Ra: isa.Reg(1 + r.Intn(12))}
		}
		tr.Insts = append(tr.Insts, Inst{Inst: in, Kind: Normal, OrigPC: 0x2000 + uint64(i)*8, Weight: 1})
		if r.Intn(6) == 0 {
			// Branch conditions live in r13..r15, which the generator
			// never writes: the passes cannot prove a direction, so no
			// unreachable-tail truncation occurs and weight conservation
			// holds exactly. (Truncation legitimately drops the weight of
			// provably-dead code — the original program never reaches it
			// through this trace either; TestOptimizeTruncationDropsDeadWeight
			// covers that case.)
			tr.Insts = append(tr.Insts, Inst{
				Inst: isa.Inst{Op: isa.BEQ, Ra: isa.Reg(13 + r.Intn(3))},
				Kind: ExitBranch, OrigPC: 0x3000, ExitTarget: 0x4000, Weight: 1,
			})
		}
	}
	tr.Insts = append(tr.Insts, Inst{
		Inst: isa.Inst{Op: isa.BR, Rd: isa.ZeroReg},
		Kind: ExitJump, ExitTarget: 0x5000, Weight: 1,
	})
	return tr
}

func TestOptimizeWeightConservationProperty(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		r := rand.New(rand.NewSource(seed))
		tr := randTrace(r)
		before := tr.TotalWeight()
		Optimize(tr)
		if tr.TotalWeight() != before {
			t.Fatalf("seed %d: weight %d -> %d\n%s", seed, before, tr.TotalWeight(), tr)
		}
	}
}

func TestOptimizeAlwaysEndsInControlTransfer(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		r := rand.New(rand.NewSource(seed + 1000))
		tr := randTrace(r)
		Optimize(tr)
		if tr.Len() == 0 {
			t.Fatalf("seed %d: trace emptied", seed)
		}
		last := tr.Insts[tr.Len()-1]
		switch last.Kind {
		case ExitJump, LoopBranch:
		default:
			if last.Inst.Op != isa.HALT && last.Inst.Op != isa.JMP {
				t.Fatalf("seed %d: trace ends in %v", seed, last.Inst)
			}
		}
	}
}

func TestOptimizeIdempotent(t *testing.T) {
	// A second Optimize pass over already-optimized code changes nothing.
	for seed := int64(0); seed < 30; seed++ {
		r := rand.New(rand.NewSource(seed + 2000))
		tr := randTrace(r)
		Optimize(tr)
		snapshot := append([]Inst(nil), tr.Insts...)
		if n := Optimize(tr); n != 0 {
			t.Fatalf("seed %d: second Optimize changed %d instructions", seed, n)
		}
		for i := range snapshot {
			if tr.Insts[i] != snapshot[i] {
				t.Fatalf("seed %d: instruction %d mutated", seed, i)
			}
		}
	}
}

// testedBranches gives every exit of tr its own target, so an evaluation
// reports which exit it took, and moves about half the exit branches onto
// BEQ/BNE of general registers, whose direction the passes can prove.
func testedBranches(r *rand.Rand, tr *Trace) {
	for i := range tr.Insts {
		ti := &tr.Insts[i]
		if ti.Kind == Normal {
			continue
		}
		ti.ExitTarget += uint64(i) * isa.WordSize
		if ti.Kind == ExitBranch && r.Intn(2) == 0 {
			ti.Inst = isa.Inst{Op: []isa.Op{isa.BEQ, isa.BNE}[r.Intn(2)], Ra: isa.Reg(1 + r.Intn(12))}
		}
	}
}

// randWord draws a register or memory word: zero, small, or any 64 bits.
func randWord(r *rand.Rand) uint64 {
	switch r.Intn(4) {
	case 0:
		return 0
	case 1:
		return uint64(r.Intn(64))
	}
	return r.Uint64()
}

// evalTrace executes tr over regs and word-addressed mem with the
// machine's semantics until an exit is taken, and returns the exit target.
// It knows only the opcodes randTrace emits and the passes produce.
func evalTrace(t *testing.T, tr *Trace, regs *[isa.NumRegs]uint64, mem map[uint64]uint64) uint64 {
	t.Helper()
	for _, ti := range tr.Insts {
		in := ti.Inst
		a, b, imm := regs[in.Ra], regs[in.Rb], uint64(in.Imm)
		var v uint64
		switch in.Op {
		case isa.NOP:
			continue
		case isa.LDI:
			v = imm
		case isa.MOVE:
			v = a
		case isa.ADDI:
			v = a + imm
		case isa.MULI:
			v = a * imm
		case isa.SLLI:
			v = a << (imm & 63)
		case isa.ADD:
			v = a + b
		case isa.AND:
			v = a & b
		case isa.MUL:
			v = a * b
		case isa.LD:
			v = mem[(a+imm)>>3]
		case isa.ST:
			mem[(a+imm)>>3] = b
			continue
		case isa.BEQ, isa.BNE:
			if (a == 0) == (in.Op == isa.BEQ) {
				return ti.ExitTarget
			}
			continue
		case isa.BR:
			return ti.ExitTarget
		default:
			t.Fatalf("evaluator has no rule for %v", in)
		}
		if in.Rd != isa.ZeroReg {
			regs[in.Rd] = v
		}
	}
	t.Fatalf("trace ran off its end:\n%s", tr)
	return 0
}

// TestOptimizeTransparencyProperty checks invariant 1 where it is observed:
// from the same registers and memory, the optimized trace leaves by the
// same exit as the original, with every register and memory word equal.
func TestOptimizeTransparencyProperty(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		r := rand.New(rand.NewSource(seed + 3000))
		orig := randTrace(r)
		testedBranches(r, orig)
		opt := orig.Clone()
		Optimize(opt)
		for run := 0; run < 4; run++ {
			var regs [isa.NumRegs]uint64
			for i := range regs {
				if isa.Reg(i) != isa.ZeroReg {
					regs[i] = randWord(r)
				}
			}
			mem := map[uint64]uint64{}
			for w := uint64(0); w < 16; w++ {
				mem[w] = randWord(r)
			}
			regsOpt, memOpt := regs, maps.Clone(mem)
			exit := evalTrace(t, orig, &regs, mem)
			exitOpt := evalTrace(t, opt, &regsOpt, memOpt)
			if exit != exitOpt || regs != regsOpt || !maps.Equal(mem, memOpt) {
				t.Fatalf("seed %d run %d: exit %#x -> %#x\nregs %v\n  -> %v\noriginal:\n%s\noptimized:\n%s",
					seed, run, exit, exitOpt, regs, regsOpt, orig, opt)
			}
		}
	}
}

func TestOptimizeFoldsAfterKnownOperandReduction(t *testing.T) {
	// ReduceKnownOperands turns the AND into `ldi r2, 0` after
	// PropagateConstants has passed the ADDI; only a second round of the
	// fixpoint folds the ADDI.
	tr := mkTrace(
		norm(isa.LDI, 1, 0, 0, 0),
		norm(isa.AND, 2, 3, 1, 0),
		norm(isa.ADDI, 4, 2, 0, 4),
	)
	Optimize(tr)
	if in := tr.Insts[2].Inst; in.Op != isa.LDI || in.Rd != 4 || in.Imm != 4 {
		t.Fatalf("addi after reduced and not folded:\n%s", tr)
	}
}

func TestOptimizeTruncationDropsDeadWeight(t *testing.T) {
	// An always-exiting branch truncates the trace; the dead tail's
	// weight disappears with it, correctly: the original program leaves
	// at that branch too, and post-exit instructions are accounted 1:1 in
	// original code.
	tr := mkTrace(
		norm(isa.LDI, 1, 0, 0, 0),
		Inst{Inst: isa.Inst{Op: isa.BEQ, Ra: 1}, Kind: ExitBranch, ExitTarget: 0x2000, Weight: 1},
		norm(isa.ADDI, 2, 2, 0, 1),
		norm(isa.ADDI, 3, 3, 0, 1),
	)
	Optimize(tr)
	if tr.TotalWeight() != 2 {
		t.Fatalf("weight = %d, want 2 (dead tail dropped): %s", tr.TotalWeight(), tr)
	}
	if tr.Insts[len(tr.Insts)-1].Kind != ExitJump {
		t.Fatalf("no exit jump after truncation: %s", tr)
	}
}

func TestPropagateConstantsThroughLDIH(t *testing.T) {
	tr := mkTrace(
		norm(isa.LDI, 1, 0, 0, 0),
		Inst{Inst: isa.Inst{Op: isa.LDIH, Rd: 1, Ra: 1, Imm: 0x345678}, Kind: Normal, Weight: 1},
		norm(isa.ADDI, 2, 1, 0, 1),
	)
	PropagateConstants(tr)
	want := int64(0x345679)
	if tr.Insts[2].Inst.Op != isa.LDI || tr.Insts[2].Inst.Imm != want {
		t.Fatalf("LDIH fold: %+v, want LDI %#x", tr.Insts[2].Inst, want)
	}
	// A 64-bit LDIH result beyond the immediate range is tracked but not
	// materialized (it would not encode).
	big := mkTrace(
		norm(isa.LDI, 1, 0, 0, 0x12),
		Inst{Inst: isa.Inst{Op: isa.LDIH, Rd: 1, Ra: 1, Imm: 0x345678}, Kind: Normal, Weight: 1},
		norm(isa.ADDI, 2, 1, 0, 0),
	)
	PropagateConstants(big)
	if big.Insts[2].Inst.Op == isa.LDI {
		t.Fatalf("out-of-range LDIH result materialized: %+v", big.Insts[2].Inst)
	}
}

func TestPropagateConstantsSkipsHugeImmediates(t *testing.T) {
	// A folded value outside the 33-bit immediate range must not be
	// materialized as an (unencodable) LDI.
	tr := mkTrace(
		norm(isa.LDI, 1, 0, 0, isa.ImmMax),
		Inst{Inst: isa.Inst{Op: isa.SLLI, Rd: 2, Ra: 1, Imm: 8}, Kind: Normal, Weight: 1},
	)
	PropagateConstants(tr)
	if tr.Insts[1].Inst.Op == isa.LDI {
		t.Fatalf("folded out-of-range constant: %+v", tr.Insts[1].Inst)
	}
}

func TestPropagateConstantsUsesZeroRegister(t *testing.T) {
	tr := mkTrace(
		Inst{Inst: isa.Inst{Op: isa.ADD, Rd: 1, Ra: isa.ZeroReg, Rb: isa.ZeroReg}, Kind: Normal, Weight: 1},
		norm(isa.ADDI, 2, 1, 0, 7),
	)
	PropagateConstants(tr)
	if tr.Insts[1].Inst.Op != isa.LDI || tr.Insts[1].Inst.Imm != 7 {
		t.Fatalf("zero-reg fold: %+v", tr.Insts[1].Inst)
	}
}

func TestRemoveRedundantBranchBLTBGE(t *testing.T) {
	// BLT on a known non-negative constant never exits.
	tr := mkTrace(
		norm(isa.LDI, 1, 0, 0, 5),
		Inst{Inst: isa.Inst{Op: isa.BLT, Ra: 1}, Kind: ExitBranch, ExitTarget: 0x2000, Weight: 1},
		Inst{Inst: isa.Inst{Op: isa.BGE, Ra: 1}, Kind: ExitBranch, ExitTarget: 0x2000, Weight: 1},
		norm(isa.ADDI, 2, 2, 0, 1), // unreachable: BGE on 5 always exits
	)
	RemoveRedundantBranches(tr)
	// BLT removed; BGE became the exit jump; tail dropped.
	if tr.Len() != 2 {
		t.Fatalf("len = %d:\n%s", tr.Len(), tr)
	}
	if tr.Insts[1].Kind != ExitJump {
		t.Fatalf("BGE not rewritten: %+v", tr.Insts[1])
	}
}

func TestFormThenOptimizeLoopIntegrity(t *testing.T) {
	// Formation + optimization of a realistic loop must keep the loop
	// branch and exit structure intact.
	p := buildLoop(t)
	tr, err := Form(p, 0x1000, []bool{true}, DefaultFormConfig())
	if err != nil {
		t.Fatal(err)
	}
	Optimize(tr)
	var loops, exits int
	for i := range tr.Insts {
		switch tr.Insts[i].Kind {
		case LoopBranch:
			loops++
		case ExitJump:
			exits++
		}
	}
	if loops != 1 || exits != 1 {
		t.Fatalf("loop structure mangled: %d loop branches, %d exits\n%s", loops, exits, tr)
	}
}

func TestNumLoadsExcludesInserted(t *testing.T) {
	tr := mkTrace(
		norm(isa.LD, 2, 1, 0, 0),
		Inst{Inst: isa.Inst{Op: isa.LDNF, Rd: 30, Ra: 2}, Kind: Normal, Inserted: true},
	)
	if tr.NumLoads() != 1 {
		t.Fatalf("NumLoads = %d, want 1", tr.NumLoads())
	}
}

func TestTraceStringRendersMarks(t *testing.T) {
	tr := mkTrace(
		norm(isa.ADD, 1, 2, 3, 0),
		Inst{Inst: isa.Inst{Op: isa.BEQ, Ra: 1}, Kind: ExitBranch, ExitTarget: 0x2000, Weight: 1},
		Inst{Inst: isa.Inst{Op: isa.BR, Rd: isa.ZeroReg}, Kind: LoopBranch},
		Inst{Inst: isa.Inst{Op: isa.BR, Rd: isa.ZeroReg}, Kind: ExitJump, ExitTarget: 0x3000},
	)
	s := tr.String()
	for _, want := range []string{" x ", " ^ ", " > "} {
		if !containsStr(s, want) {
			t.Errorf("listing missing mark %q:\n%s", want, s)
		}
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
