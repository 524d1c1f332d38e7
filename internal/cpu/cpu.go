// Package cpu implements the simulated processor: an instruction-level
// timing interpreter standing in for the paper's SMTSIM-modelled 4-wide SMT
// core (Table 1).
//
// The model folds fetch/decode/issue into a fractional per-instruction issue
// cost, charges the 20-stage pipeline's misprediction penalty from a real
// direction predictor, blocks demand loads for their observed latency beyond
// a bounded out-of-order overlap window, and lets prefetches proceed without
// stalling. The second hardware context (the optimization helper thread) is
// modelled as an issue-bandwidth tax while it is active, plus its startup
// latency, which is exactly the interference the paper measures in §5.1.
package cpu

import (
	"fmt"
	"math"

	"tridentsp/internal/branchpred"
	"tridentsp/internal/isa"
	"tridentsp/internal/memsys"
	"tridentsp/internal/program"
)

// Config parameterizes the timing model.
type Config struct {
	// IssueWidth is instructions per cycle at full throughput (Table 1: 4).
	IssueWidth int
	// MispredictPenalty is the refill cost of the 20-stage pipeline.
	MispredictPenalty int64
	// OverlapWindow is how many cycles of a demand miss the out-of-order
	// core hides under independent work (stand-in for the 256-entry ROB).
	OverlapWindow int64
	// MLP is the memory-level parallelism of independent misses: a miss
	// whose address does not depend on an earlier load's value overlaps
	// with its neighbours in the 256-entry ROB, so only 1/MLP of its
	// residual stall is charged.
	MLP int64
	// MLPDep is the (smaller) overlap of loads whose address derives from
	// another load in the same iteration (e.g. arc->node dereferences):
	// chains from different iterations still overlap somewhat. A load
	// whose address derives from its *own* previous value (p = p->next)
	// is a single serial chain and always pays the full residual — which
	// is exactly why the paper's pointer benchmarks are the hardest and
	// most profitable targets.
	MLPDep int64
	// FDivLatency is the extra stall of an FDIV beyond its issue slot.
	FDivLatency int64
	// InterferenceNum/Den inflate the per-instruction issue cost while the
	// helper thread shares the core: cost *= (Den+Num)/Den.
	InterferenceNum, InterferenceDen int64
}

// DefaultConfig mirrors Table 1's core.
func DefaultConfig() Config {
	return Config{
		IssueWidth:        4,
		MispredictPenalty: 20,
		OverlapWindow:     48,
		MLP:               6,
		MLPDep:            2,
		FDivLatency:       12,
		InterferenceNum:   1,
		InterferenceDen:   4,
	}
}

// CodeSpace supplies decoded instructions by PC. The core composes the
// patched program image with Trident's code cache behind this interface.
type CodeSpace interface {
	Fetch(pc uint64) (isa.Inst, bool)
}

// ProgramSpace adapts a program image (pre-decoded) as a CodeSpace.
type ProgramSpace struct {
	base   uint64
	insts  []isa.Inst
	blocks *BlockCache
}

// NewProgramSpace pre-decodes a program.
func NewProgramSpace(p *program.Program) *ProgramSpace {
	s := &ProgramSpace{base: p.Base, insts: make([]isa.Inst, len(p.Code))}
	copy(s.insts, p.Decoded())
	s.blocks = NewBlockCache(p.Base)
	s.blocks.SetSource(s.insts, nil)
	return s
}

// Fetch implements CodeSpace.
func (s *ProgramSpace) Fetch(pc uint64) (isa.Inst, bool) {
	if pc < s.base || pc%isa.WordSize != 0 {
		return isa.Inst{}, false
	}
	i := (pc - s.base) / isa.WordSize
	if i >= uint64(len(s.insts)) {
		return isa.Inst{}, false
	}
	return s.insts[i], true
}

// Patch rewrites one instruction word (used when Trident links a trace).
func (s *ProgramSpace) Patch(pc uint64, w uint64) error {
	if pc < s.base || pc%isa.WordSize != 0 {
		return fmt.Errorf("cpu: patch outside code space at %#x", pc)
	}
	i := (pc - s.base) / isa.WordSize
	if i >= uint64(len(s.insts)) {
		return fmt.Errorf("cpu: patch outside code space at %#x", pc)
	}
	s.insts[i] = isa.Decode(w)
	// A patched word may split or join straight-line runs; drop every
	// cached block descriptor so the fast path re-derives them.
	s.blocks.Invalidate()
	return nil
}

// BlockAt returns the straight-line block starting at pc (see BlockCache).
func (s *ProgramSpace) BlockAt(pc uint64) (Block, bool) {
	return s.blocks.At(pc)
}

// BlockAtJIT is BlockAt through the JIT tier (see BlockCache.AtCompiled).
func (s *ProgramSpace) BlockAtJIT(pc uint64, threshold uint32) (Block, *CompiledBlock, bool) {
	return s.blocks.AtCompiled(pc, threshold)
}

// CompiledAt is the launch-hot chain lookup (see BlockCache.CompiledAt).
func (s *ProgramSpace) CompiledAt(pc uint64) *CompiledBlock {
	return s.blocks.CompiledAt(pc)
}

// DropCompiled eagerly discards the JIT tier (sentinel demotion, restore).
func (s *ProgramSpace) DropCompiled() { s.blocks.DropCompiled() }

// BlockStats returns the block cache's activity counters.
func (s *ProgramSpace) BlockStats() BlockStats { return s.blocks.Stats() }

// ResetBlockStats zeroes the block cache's activity counters.
func (s *ProgramSpace) ResetBlockStats() { s.blocks.ResetStats() }

// BranchKind describes the control behaviour of a committed instruction.
type BranchKind uint8

// Branch kinds.
const (
	BranchNone BranchKind = iota
	BranchNotTaken
	BranchTaken
	BranchJump
)

// StepInfo reports what one committed instruction did; the simulation core
// feeds it to Trident's monitoring hardware.
type StepInfo struct {
	PC   uint64
	Inst isa.Inst
	// Now is the cycle after this instruction committed.
	Now int64
	// NextPC is where control goes next.
	NextPC uint64

	IsLoad    bool
	LoadAddr  uint64
	LoadValue uint64
	LoadRes   memsys.Result

	Branch       BranchKind
	Mispredicted bool

	Halted bool
}

// Thread is one executing hardware context.
type Thread struct {
	cfg  Config
	code CodeSpace
	mem  *program.Memory
	hier *memsys.Hierarchy
	bp   *branchpred.Predictor

	regs [isa.NumRegs]uint64
	pc   uint64

	// Timing state. issueUnits accumulates fixed-point issue occupancy:
	// unitsPerCycle units equal one cycle.
	issueUnits    int64
	unitsPerCycle int64
	unitsPerInst  int64
	// maxCapCycles = MaxInt64/unitsPerCycle, precomputed so the per-batch
	// cap conversion (sbCaps) runs without a hardware divide; nowShift is
	// log2(unitsPerCycle) when that is a power of two (negative otherwise),
	// for the same reason in Now — which runs on every commit.
	maxCapCycles int64
	nowShift     int
	stallCycles  int64
	interfering  bool

	// taintSrc records, per register, the PC of the load the value
	// derives from (0 = clean); it drives the MLP classification above.
	taintSrc [isa.NumRegs]uint64

	committed uint64
	halted    bool
}

// New creates a thread at the program's entry point.
func New(cfg Config, code CodeSpace, entry uint64, mem *program.Memory,
	hier *memsys.Hierarchy, bp *branchpred.Predictor) *Thread {
	if cfg.IssueWidth <= 0 {
		panic("cpu: issue width must be positive")
	}
	t := &Thread{
		cfg:  cfg,
		code: code,
		mem:  mem,
		hier: hier,
		bp:   bp,
		pc:   entry,
	}
	// Fixed-point issue accounting with room for the interference ratio.
	t.unitsPerCycle = int64(cfg.IssueWidth) * cfg.InterferenceDen
	t.unitsPerInst = cfg.InterferenceDen
	t.maxCapCycles = math.MaxInt64 / t.unitsPerCycle
	t.nowShift = -1
	for sh := 0; sh < 63; sh++ {
		if int64(1)<<sh == t.unitsPerCycle {
			t.nowShift = sh
			break
		}
	}
	return t
}

// Now returns the current cycle. issueUnits only ever accumulates upward
// from zero, so the shift is exact where it applies.
func (t *Thread) Now() int64 {
	if t.nowShift >= 0 {
		return t.issueUnits>>uint(t.nowShift) + t.stallCycles
	}
	return t.issueUnits/t.unitsPerCycle + t.stallCycles
}

// Committed returns the number of committed instructions (including any
// optimizer-inserted ones; the core weighs them separately).
func (t *Thread) Committed() uint64 { return t.committed }

// Halted reports whether the thread has executed HALT or faulted.
func (t *Thread) Halted() bool { return t.halted }

// PC returns the next PC to execute.
func (t *Thread) PC() uint64 { return t.pc }

// Reg returns a register value (test helper).
func (t *Thread) Reg(r isa.Reg) uint64 { return t.regs[r] }

// SetReg sets a register (workload setup helper).
func (t *Thread) SetReg(r isa.Reg, v uint64) {
	if r != isa.ZeroReg {
		t.regs[r] = v
	}
}

// SetInterference switches the helper-thread issue tax on or off.
func (t *Thread) SetInterference(active bool) { t.interfering = active }

// AddStall charges extra stall cycles (used by tests and the core to model
// one-off penalties).
func (t *Thread) AddStall(c int64) { t.stallCycles += c }

// Step executes one instruction, returning what happened. After HALT (or a
// fetch fault) the thread stays halted and Step reports Halted.
func (t *Thread) Step() StepInfo {
	info := StepInfo{PC: t.pc, Now: t.Now()}
	if t.halted {
		info.Halted = true
		return info
	}
	in, ok := t.code.Fetch(t.pc)
	if !ok {
		t.halted = true
		info.Halted = true
		return info
	}
	info.Inst = in
	now := t.Now()
	next := t.pc + isa.WordSize

	switch in.Op {
	case isa.NOP:

	case isa.ADD:
		t.setReg(in.Rd, t.regs[in.Ra]+t.regs[in.Rb])
	case isa.SUB:
		t.setReg(in.Rd, t.regs[in.Ra]-t.regs[in.Rb])
	case isa.MUL:
		t.setReg(in.Rd, t.regs[in.Ra]*t.regs[in.Rb])
	case isa.AND:
		t.setReg(in.Rd, t.regs[in.Ra]&t.regs[in.Rb])
	case isa.OR:
		t.setReg(in.Rd, t.regs[in.Ra]|t.regs[in.Rb])
	case isa.XOR:
		t.setReg(in.Rd, t.regs[in.Ra]^t.regs[in.Rb])
	case isa.SLL:
		t.setReg(in.Rd, t.regs[in.Ra]<<(t.regs[in.Rb]&63))
	case isa.SRL:
		t.setReg(in.Rd, t.regs[in.Ra]>>(t.regs[in.Rb]&63))
	case isa.CMPLT:
		t.setReg(in.Rd, b2u(int64(t.regs[in.Ra]) < int64(t.regs[in.Rb])))
	case isa.CMPEQ:
		t.setReg(in.Rd, b2u(t.regs[in.Ra] == t.regs[in.Rb]))

	case isa.ADDI:
		t.setReg(in.Rd, t.regs[in.Ra]+uint64(in.Imm))
	case isa.SUBI:
		t.setReg(in.Rd, t.regs[in.Ra]-uint64(in.Imm))
	case isa.MULI:
		t.setReg(in.Rd, t.regs[in.Ra]*uint64(in.Imm))
	case isa.ANDI:
		t.setReg(in.Rd, t.regs[in.Ra]&uint64(in.Imm))
	case isa.ORI:
		t.setReg(in.Rd, t.regs[in.Ra]|uint64(in.Imm))
	case isa.XORI:
		t.setReg(in.Rd, t.regs[in.Ra]^uint64(in.Imm))
	case isa.SLLI:
		t.setReg(in.Rd, t.regs[in.Ra]<<(uint64(in.Imm)&63))
	case isa.SRLI:
		t.setReg(in.Rd, t.regs[in.Ra]>>(uint64(in.Imm)&63))
	case isa.CMPLTI:
		t.setReg(in.Rd, b2u(int64(t.regs[in.Ra]) < in.Imm))
	case isa.CMPEQI:
		t.setReg(in.Rd, b2u(t.regs[in.Ra] == uint64(in.Imm)))
	case isa.LDA:
		t.setReg(in.Rd, t.regs[in.Ra]+uint64(in.Imm))
	case isa.MOVE:
		t.setReg(in.Rd, t.regs[in.Ra])
	case isa.LDI:
		t.setReg(in.Rd, uint64(in.Imm))
	case isa.LDIH:
		t.setReg(in.Rd, t.regs[in.Ra]<<32|uint64(uint32(in.Imm)))

	case isa.FADD:
		t.setReg(in.Rd, t.regs[in.Ra]+t.regs[in.Rb])
	case isa.FMUL:
		t.setReg(in.Rd, t.regs[in.Ra]*t.regs[in.Rb])
	case isa.FDIV:
		t.setReg(in.Rd, fdiv(t.regs[in.Ra], t.regs[in.Rb]))
		t.stallCycles += t.cfg.FDivLatency

	case isa.LD:
		addr := t.regs[in.Ra] + uint64(in.Imm)
		res := t.demandLoad(t.pc, in.Ra, addr)
		v := t.mem.Load(addr)
		t.setReg(in.Rd, v)
		info.IsLoad = true
		info.LoadAddr = addr
		info.LoadValue = v
		info.LoadRes = res

	case isa.LDNF:
		// Non-faulting load: only emitted by the prefetch optimizer's
		// dereference chains. It acts as a prefetch of its target line
		// (never blocking) and yields zero for unmapped addresses.
		addr := t.regs[in.Ra] + uint64(in.Imm)
		t.hier.Prefetch(addr, now)
		var v uint64
		if t.mem.Valid(addr) {
			v = t.mem.Load(addr)
		}
		t.setReg(in.Rd, v)

	case isa.ST:
		addr := t.regs[in.Ra] + uint64(in.Imm)
		t.mem.Store(addr, t.regs[in.Rb])
		t.hier.Store(addr, now)

	case isa.PREFETCH:
		t.hier.Prefetch(t.regs[in.Ra]+uint64(in.Imm), now)

	case isa.BR:
		if in.Rd != isa.ZeroReg {
			t.setReg(in.Rd, next)
		}
		next = isa.BranchTarget(t.pc, in)
		info.Branch = BranchJump

	case isa.JMP:
		if in.Rd != isa.ZeroReg {
			t.setReg(in.Rd, next)
		}
		next = t.regs[in.Ra] &^ 7
		info.Branch = BranchJump

	case isa.BEQ, isa.BNE, isa.BLT, isa.BGE:
		taken := evalBranch(in.Op, t.regs[in.Ra])
		if taken {
			next = isa.BranchTarget(t.pc, in)
			info.Branch = BranchTaken
		} else {
			info.Branch = BranchNotTaken
		}
		if !t.bp.Update(t.pc, taken) {
			t.stallCycles += t.cfg.MispredictPenalty
			info.Mispredicted = true
		}

	case isa.HALT:
		t.halted = true
		info.Halted = true

	default:
		// Unknown opcodes halt the thread rather than silently skipping.
		t.halted = true
		info.Halted = true
	}

	t.updateTaint(info.PC, &in)

	// Charge the issue slot.
	units := t.unitsPerInst
	if t.interfering {
		units += t.cfg.InterferenceNum
	}
	t.issueUnits += units
	t.committed++

	t.pc = next
	info.NextPC = next
	info.Now = t.Now()
	return info
}

// demandLoad runs a demand load's full hierarchy access at the current
// cycle and charges its stall: the latency beyond the overlap window, divided
// by the memory-level parallelism the address register's taint allows. pc is
// the load's address and ra its base register, read before the load's own
// taint update. Step and both batch executors call it for every load the
// L1-hit probe does not retire, so the MLP rule lives here only.
func (t *Thread) demandLoad(pc uint64, ra isa.Reg, addr uint64) memsys.Result {
	res := t.hier.Load(pc, addr, t.Now())
	if stall := res.Latency - t.cfg.OverlapWindow; stall > 0 {
		src := t.taintSrc[ra]
		switch {
		case src == pc || t.cfg.MLP <= 1:
			t.stallCycles += stall // loop-carried chase: serial chain
		case src != 0:
			t.stallCycles += stall / max1(t.cfg.MLPDep)
		default:
			t.stallCycles += stall / max1(t.cfg.MLP)
		}
	}
	return res
}

// taintRule is how an opcode's register write propagates load-derivedness.
type taintRule uint8

const (
	taintNone  taintRule = iota // writes no register (NOP, ST, PREFETCH, branches, HALT)
	taintClear                  // not load-derived: LDI, LDNF (inserted prefetch code), jump links
	taintPC                     // LD: the load's own pc
	taintRa                     // single-source ALU forms: the source's taint
	taintRaRb                   // two-source ALU/FP forms: the first tainted source
)

// taintRules maps every opcode to its taintRule (indexed by the Op byte, so
// the lookup needs no bounds check).
var taintRules = func() (r [256]taintRule) {
	for op := isa.Op(0); op.Valid(); op++ {
		switch op.Class() {
		case isa.ClassLoad, isa.ClassJump:
			r[op] = taintClear
		case isa.ClassALU, isa.ClassFP:
			r[op] = taintRaRb
		}
	}
	r[isa.LD] = taintPC
	r[isa.LDI] = taintClear
	for _, op := range []isa.Op{isa.MOVE, isa.LDIH, isa.ADDI, isa.SUBI, isa.MULI,
		isa.ANDI, isa.ORI, isa.XORI, isa.SLLI, isa.SRLI, isa.CMPLTI, isa.CMPEQI, isa.LDA} {
		r[op] = taintRa
	}
	return r
}()

// updateTaint propagates load-derivedness through register writes. pc is
// the address of the instruction, recorded as the taint source for loads.
// Step and the batch executor share it. It must stay small enough to
// inline: a call in ExecSuperBlock's inner loop spills the loop's live
// registers on every instruction.
func (t *Thread) updateTaint(pc uint64, in *isa.Inst) {
	rule := taintRules[in.Op]
	if rule == taintNone || in.Rd == isa.ZeroReg {
		return
	}
	var src uint64
	switch rule {
	case taintPC:
		src = pc
	case taintRa:
		src = t.taintSrc[in.Ra]
	case taintRaRb:
		if src = t.taintSrc[in.Ra]; src == 0 {
			src = t.taintSrc[in.Rb]
		}
	}
	t.taintSrc[in.Rd] = src
}

func max1(v int64) int64 {
	if v < 1 {
		return 1
	}
	return v
}

// setReg writes rd unless it is the hardwired zero register.
func (t *Thread) setReg(rd isa.Reg, v uint64) {
	if rd != isa.ZeroReg {
		t.regs[rd] = v
	}
}

func evalBranch(op isa.Op, v uint64) bool {
	switch op {
	case isa.BEQ:
		return v == 0
	case isa.BNE:
		return v != 0
	case isa.BLT:
		return int64(v) < 0
	case isa.BGE:
		return int64(v) >= 0
	}
	return false
}

func fdiv(a, b uint64) uint64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
