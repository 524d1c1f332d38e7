package trace

import "tridentsp/internal/isa"

// This file implements the classical optimizations Trident applies to a
// streamlined trace (§3.2): constant propagation and folding, and redundant
// branch removal. ReduceKnownOperands (specialize.go) runs with them; it is
// what makes value specialization pay. §3.2's other passes find no work on
// these kernels (DESIGN §2).
//
// Every pass preserves two invariants checked by tests
// (TestOptimizeTransparencyProperty, TestOptimizeWeightConservationProperty):
//
//  1. Architectural transparency: at every instruction boundary (hence at
//     every possible trace exit) all registers hold exactly the values the
//     original code would have produced. Passes therefore only replace
//     value-producing instructions with cheaper ones computing the same
//     value, or delete instructions with no architectural effect; they
//     never delete a value an exit path could observe.
//  2. Weight conservation: removed instructions donate their original-
//     instruction weight to a surviving neighbour, so IPC accounting still
//     reflects the original program.

// Optimize runs all passes to a bounded fixpoint and returns the number of
// instructions changed or removed. A second round is needed when
// ReduceKnownOperands makes a register known (`and rd, ra, zero` becomes
// `ldi rd, 0`) after PropagateConstants has passed the instructions that
// read it.
func Optimize(t *Trace) int {
	total := 0
	for iter := 0; iter < 4; iter++ {
		n := PropagateConstants(t)
		n += ReduceKnownOperands(t)
		n += RemoveRedundantBranches(t)
		total += n
		if n == 0 {
			break
		}
	}
	return total
}

// regVals is the constant-propagation scratch table: one slot per
// architectural register plus a validity mask. It lives on the stack of the
// pass using it, so optimization runs are allocation-free and independent
// instances can run on concurrent worker goroutines.
type regVals struct {
	val   [isa.NumRegs]uint64
	known [isa.NumRegs]bool
}

func (rv *regVals) get(r isa.Reg) (uint64, bool) {
	if r == isa.ZeroReg {
		return 0, true
	}
	return rv.val[r], rv.known[r]
}

func (rv *regVals) set(r isa.Reg, v uint64) {
	if r != isa.ZeroReg {
		rv.val[r] = v
		rv.known[r] = true
	}
}

func (rv *regVals) forget(r isa.Reg) { rv.known[r] = false }

// PropagateConstants tracks registers with compile-time-known values
// through the trace and folds ALU operations over known operands into LDI.
// It returns the number of instructions rewritten.
func PropagateConstants(t *Trace) int {
	var known regVals
	changed := 0
	for i := range t.Insts {
		ti := &t.Insts[i]
		in := ti.Inst
		if v, ok := foldInst(in, &known); ok {
			if in.Op != isa.LDI {
				lit := isa.Inst{Op: isa.LDI, Rd: in.Rd, Imm: int64(v)}
				if fits(lit.Imm) {
					ti.Inst = lit
					changed++
				}
			}
			known.set(in.Rd, v)
			continue
		}
		if rd, ok := Writes(in); ok {
			known.forget(rd)
		}
	}
	return changed
}

// foldInst evaluates in if all its source registers are known constants,
// returning the value it writes.
func foldInst(in isa.Inst, known *regVals) (uint64, bool) {
	get := known.get
	if in.Rd == isa.ZeroReg {
		return 0, false
	}
	switch in.Op {
	case isa.LDI:
		return uint64(in.Imm), true
	case isa.LDIH:
		if a, ok := get(in.Ra); ok {
			return a<<32 | uint64(uint32(in.Imm)), true
		}
	case isa.MOVE:
		if a, ok := get(in.Ra); ok {
			return a, true
		}
	case isa.ADDI, isa.LDA:
		if a, ok := get(in.Ra); ok {
			return a + uint64(in.Imm), true
		}
	case isa.SUBI:
		if a, ok := get(in.Ra); ok {
			return a - uint64(in.Imm), true
		}
	case isa.MULI:
		if a, ok := get(in.Ra); ok {
			return a * uint64(in.Imm), true
		}
	case isa.ANDI:
		if a, ok := get(in.Ra); ok {
			return a & uint64(in.Imm), true
		}
	case isa.ORI:
		if a, ok := get(in.Ra); ok {
			return a | uint64(in.Imm), true
		}
	case isa.XORI:
		if a, ok := get(in.Ra); ok {
			return a ^ uint64(in.Imm), true
		}
	case isa.SLLI:
		if a, ok := get(in.Ra); ok {
			return a << (uint64(in.Imm) & 63), true
		}
	case isa.SRLI:
		if a, ok := get(in.Ra); ok {
			return a >> (uint64(in.Imm) & 63), true
		}
	case isa.CMPLTI:
		if a, ok := get(in.Ra); ok {
			return b2u(int64(a) < in.Imm), true
		}
	case isa.CMPEQI:
		if a, ok := get(in.Ra); ok {
			return b2u(a == uint64(in.Imm)), true
		}
	case isa.ADD, isa.FADD:
		return fold2(in, known, func(a, b uint64) uint64 { return a + b })
	case isa.SUB:
		return fold2(in, known, func(a, b uint64) uint64 { return a - b })
	case isa.MUL, isa.FMUL:
		return fold2(in, known, func(a, b uint64) uint64 { return a * b })
	case isa.AND:
		return fold2(in, known, func(a, b uint64) uint64 { return a & b })
	case isa.OR:
		return fold2(in, known, func(a, b uint64) uint64 { return a | b })
	case isa.XOR:
		return fold2(in, known, func(a, b uint64) uint64 { return a ^ b })
	case isa.SLL:
		return fold2(in, known, func(a, b uint64) uint64 { return a << (b & 63) })
	case isa.SRL:
		return fold2(in, known, func(a, b uint64) uint64 { return a >> (b & 63) })
	case isa.CMPLT:
		return fold2(in, known, func(a, b uint64) uint64 { return b2u(int64(a) < int64(b)) })
	case isa.CMPEQ:
		return fold2(in, known, func(a, b uint64) uint64 { return b2u(a == b) })
	}
	return 0, false
}

func fold2(in isa.Inst, known *regVals, f func(a, b uint64) uint64) (uint64, bool) {
	a, okA := known.get(in.Ra)
	b, okB := known.get(in.Rb)
	if okA && okB {
		return f(a, b), true
	}
	return 0, false
}

func fits(imm int64) bool { return imm >= isa.ImmMin && imm <= isa.ImmMax }

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// RemoveRedundantBranches deletes conditional exits whose outcome is a
// known constant. A branch that provably stays on the trace is a no-op; a
// branch that provably exits is rewritten as an unconditional exit (and the
// rest of the trace is unreachable and dropped). It returns the number of
// instructions removed or rewritten.
func RemoveRedundantBranches(t *Trace) int {
	var known regVals
	changed := 0
	for i := 0; i < len(t.Insts); i++ {
		ti := &t.Insts[i]
		in := ti.Inst
		if ti.Kind == ExitBranch {
			if v, ok := condValue(in, &known); ok {
				if !v {
					// Never exits: delete, donating weight forward.
					donateWeight(t, i)
					t.Insts = append(t.Insts[:i], t.Insts[i+1:]...)
					changed++
					i--
					continue
				}
				// Always exits: everything after is unreachable.
				t.Insts[i] = Inst{
					Inst:       isa.Inst{Op: isa.BR, Rd: isa.ZeroReg},
					Kind:       ExitJump,
					OrigPC:     ti.OrigPC,
					ExitTarget: ti.ExitTarget,
					Weight:     ti.Weight,
				}
				t.Insts = t.Insts[:i+1]
				return changed + 1
			}
		}
		if v, ok := foldInst(in, &known); ok {
			known.set(in.Rd, v)
		} else if rd, ok := Writes(in); ok {
			known.forget(rd)
		}
	}
	return changed
}

// condValue evaluates a conditional branch with a known condition register.
func condValue(in isa.Inst, known *regVals) (bool, bool) {
	v, ok := known.get(in.Ra)
	if !ok {
		return false, false
	}
	switch in.Op {
	case isa.BEQ:
		return v == 0, true
	case isa.BNE:
		return v != 0, true
	case isa.BLT:
		return int64(v) < 0, true
	case isa.BGE:
		return int64(v) >= 0, true
	}
	return false, false
}

// donateWeight moves instruction i's weight to its successor (or
// predecessor when i is last) before i is removed.
func donateWeight(t *Trace, i int) {
	w := t.Insts[i].Weight
	if w == 0 {
		return
	}
	switch {
	case i+1 < len(t.Insts):
		t.Insts[i+1].Weight += w
	case i > 0:
		t.Insts[i-1].Weight += w
	}
}
