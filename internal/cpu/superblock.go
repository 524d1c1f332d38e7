package cpu

import (
	"math"

	"tridentsp/internal/isa"
	"tridentsp/internal/memsys"
)

// This file implements the superblock batch executor. ExecSuperBlock retires
// a Block's instructions in one tight loop — ALU work inline, loads through
// the hierarchy's L1-hit fast probe, stores and prefetches through their
// direct hierarchy calls, and a terminating conditional branch through the
// real predictor, folding a taken back-edge onto the block entry so whole
// loop iterations retire per call. A load the fast probe declines (L1 miss,
// line in flight, MSHR at capacity) retires inside the batch through Step's
// own full access and stall charge, and the batch ends right after it — a
// post-commit stop, so the caller's batch-end work runs at exactly the
// boundary the one-step loop would have reached. Whenever an instruction
// cannot be proven equivalent to the full Step dispatch (a store under MSHR
// pressure, a missing memory system, an unknown opcode), the batch stops
// *before* that instruction with exact architectural state, so the caller's
// one-step loop resumes on precisely the instruction that needs the slow
// path.

// SBHooks lets the simulation core observe batched instructions that its
// slow path would have monitored, without ExecSuperBlock knowing anything
// about Trident. All fields are optional; a nil hook skips the observation
// (and its cost) entirely.
type SBHooks struct {
	// Load is called after each LD commits (post issue charge, so now is the
	// same post-commit cycle the slow path's StepInfo.Now would report).
	// Returning true ends the batch after this instruction — used when the
	// observation raised an event the between-batch machinery must see at
	// exactly this boundary.
	Load func(pc, addr, value uint64, res memsys.Result, now int64) bool
	// Branch is called after a conditional branch commits (and after any
	// misprediction stall was charged). Returning true ends the batch.
	// When Branch is non-nil, branches near the horizon conservatively
	// pre-stop (accounting for a possible misprediction penalty) so a hook
	// never observes an instruction that crossed the horizon.
	Branch func(pc uint64, in *isa.Inst, taken bool, now int64) bool
	// LoopBack is called when a taken branch folds back to the block entry
	// and the batch continues: the entry instruction is guaranteed to
	// re-execute within this batch. now is the branch's post-commit cycle.
	LoopBack func(now int64)
	// StopBeforeMiss makes a Load-hooked batch stop *before* (NeedSlow) a
	// load the fast probe declines instead of retiring it. The caller sets
	// it when an event it applies ahead of the hook could fall due at the
	// load's commit: a miss's stall, and so its commit cycle, is unknown
	// until the access runs, so the horizon pre-check cannot rule it out.
	StopBeforeMiss bool
}

// SBExec reports what one ExecSuperBlock call did.
type SBExec struct {
	// N is the number of instructions retired; Weight their total weight.
	N      int
	Weight uint64
	// Loads counts retired LD instructions; WouldMiss counts those that
	// missed L1 or hit a first-use prefetched line (memsys.Result.WouldMiss).
	// Only the batch's last instruction can be an L1 miss: a declined load
	// ends the batch after it commits.
	Loads     uint32
	WouldMiss uint32
	// NeedSlow is true when the batch stopped *before* an instruction that
	// requires the full Step dispatch; t.PC() addresses that instruction.
	// NeedSlow with N == 0 means not even the first instruction was viable.
	NeedSlow bool
}

// sbCaps converts the horizon into fixed-point issue-unit caps under the
// current stallCycles. unitsCap is the exact post-commit bound ("commit at
// or past the horizon" ⟺ issueUnits >= unitsCap). brCap is the conservative
// pre-commit bound for hooked branches: it additionally reserves a full
// misprediction penalty, so a branch that passes `issueUnits+units < brCap`
// cannot cross the horizon even if it mispredicts. Both must be recomputed
// whenever stallCycles changes.
func (t *Thread) sbCaps(horizon int64, needBr bool) (unitsCap, brCap int64) {
	unitsCap, brCap = math.MaxInt64, math.MaxInt64
	if horizon == math.MaxInt64 {
		return
	}
	rem := horizon - t.stallCycles
	switch {
	case rem <= 0:
		unitsCap = 0
	case rem <= t.maxCapCycles:
		unitsCap = rem * t.unitsPerCycle
	}
	if needBr {
		rem -= t.cfg.MispredictPenalty
		switch {
		case rem <= 0:
			brCap = 0
		case rem <= t.maxCapCycles:
			brCap = rem * t.unitsPerCycle
		}
	}
	return
}

// ExecSuperBlock retires instructions from b until the cumulative weight
// reaches weightBudget, the thread's cycle counter reaches horizon, a hook
// asks to stop, a load the fast probe declined has retired, the block ends,
// or an instruction needs the slow path — whichever comes first. Post-commit
// stop conditions are evaluated after each commit, so the final instruction
// is exactly the one whose commit crossed the budget or horizon (or the
// declined load); NeedSlow stops happen *before* the offending instruction,
// leaving state exactly as the one-step loop would have it when reaching
// that instruction.
//
// The caller guarantees the thread is not halted and t.PC() addresses
// b.Insts[0]; semantics, taint propagation, memory-system effects, and
// issue accounting mirror Step exactly for every member opcode.
func (t *Thread) ExecSuperBlock(b Block, weightBudget uint64, horizon int64, hooks *SBHooks) SBExec {
	var (
		hookLoad   func(pc, addr, value uint64, res memsys.Result, now int64) bool
		hookBranch func(pc uint64, in *isa.Inst, taken bool, now int64) bool
		hookLoop   func(now int64)
		missStop   bool // a declined hooked load pre-stops (StopBeforeMiss)
	)
	if hooks != nil {
		hookLoad, hookBranch, hookLoop = hooks.Load, hooks.Branch, hooks.LoopBack
		missStop = hookLoad != nil && hooks.StopBeforeMiss
	}
	unitsCap, brCap := t.sbCaps(horizon, hookBranch != nil)
	units := t.unitsPerInst
	if t.interfering {
		units += t.cfg.InterferenceNum
	}
	memOK := t.hier != nil && t.mem != nil
	// Fast loads never charge a stall: the probe only succeeds on an L1
	// hit, and an L1 hit's latency must fit inside the overlap window.
	// Otherwise every load takes demandLoad.
	loadFastOK := memOK && t.hier.L1Latency() <= t.cfg.OverlapWindow

	var ex SBExec
	entry := t.pc
	pc := t.pc
	i := 0
loop:
	for {
		in := &b.Insts[i]
		branch := false
		taken := false
		declined := false  // a load the fast probe declined: stop after it
		var hookKind uint8 // 0 none, 1 load, 2 branch
		var hAddr, hVal uint64
		var hRes memsys.Result
		nextPC := pc + isa.WordSize

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

		case isa.ADDI, isa.LDA:
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

		case isa.LD:
			// A hooked load must not commit past the horizon (the hook's
			// observation has to precede the between-batch event work), so
			// pre-stop if this commit would cross. Loads charge no stall on
			// the fast path, so for a hit the pre-check is exact.
			if !memOK || (hookLoad != nil && t.issueUnits+units >= unitsCap) {
				ex.NeedSlow = true
				break loop
			}
			addr := t.regs[in.Ra] + uint64(in.Imm)
			var res memsys.Result
			ok := false
			if loadFastOK {
				res, ok = t.hier.LoadFast(pc, addr, t.Now())
			}
			if !ok {
				// The probe declined: the hierarchy is untouched, so Step's
				// full access and stall charge run here instead.
				if missStop {
					ex.NeedSlow = true
					break loop
				}
				res = t.demandLoad(pc, in.Ra, addr)
				declined = true
			}
			v := t.mem.Load(addr)
			t.setReg(in.Rd, v)
			ex.Loads++
			if res.WouldMiss() {
				ex.WouldMiss++
			}
			if hookLoad != nil {
				hookKind, hAddr, hVal, hRes = 1, addr, v, res
			}

		case isa.LDNF:
			if !memOK {
				ex.NeedSlow = true
				break loop
			}
			addr := t.regs[in.Ra] + uint64(in.Imm)
			t.hier.Prefetch(addr, t.Now())
			var v uint64
			if t.mem.Valid(addr) {
				v = t.mem.Load(addr)
			}
			t.setReg(in.Rd, v)

		case isa.ST:
			// Check viability before the architectural store: a declined
			// probe must leave no trace of this instruction.
			if !memOK || !t.hier.CanStoreFast() {
				ex.NeedSlow = true
				break loop
			}
			addr := t.regs[in.Ra] + uint64(in.Imm)
			t.mem.Store(addr, t.regs[in.Rb])
			t.hier.StoreFast(addr, t.Now())

		case isa.PREFETCH:
			if !memOK {
				ex.NeedSlow = true
				break loop
			}
			t.hier.Prefetch(t.regs[in.Ra]+uint64(in.Imm), t.Now())

		case isa.BEQ, isa.BNE, isa.BLT, isa.BGE:
			branch = true
			if hookBranch != nil {
				if t.issueUnits+units >= brCap {
					ex.NeedSlow = true
					break loop
				}
				hookKind = 2
			}
			taken = evalBranch(in.Op, t.regs[in.Ra])
			if taken {
				nextPC = isa.BranchTarget(pc, *in)
			}
			if !t.bp.Update(pc, taken) {
				t.stallCycles += t.cfg.MispredictPenalty
				// stallCycles moved: the cached unit caps are stale.
				unitsCap, brCap = t.sbCaps(horizon, hookBranch != nil)
			}

		default:
			// Block construction only admits member opcodes; anything else
			// (a stale descriptor would be a bug) goes to the slow path.
			ex.NeedSlow = true
			break loop
		}

		t.updateTaint(pc, in)
		t.issueUnits += units
		ex.N++
		if b.Weights != nil {
			ex.Weight += uint64(b.Weights[i])
		} else {
			ex.Weight++
		}

		stop := false
		switch hookKind {
		case 1:
			stop = hookLoad(pc, hAddr, hVal, hRes, t.Now())
		case 2:
			stop = hookBranch(pc, in, taken, t.Now())
		}

		if branch {
			if taken && nextPC == entry && !stop &&
				ex.Weight < weightBudget && t.issueUnits < unitsCap {
				// Fold the back-edge: restart the block at its entry.
				if hookLoop != nil {
					hookLoop(t.Now())
				}
				pc, i = entry, 0
				continue
			}
			// Taken exit or fall-through: the branch is the block's last
			// instruction either way, so the batch ends here.
			pc = nextPC
			break
		}
		if stop || declined || ex.Weight >= weightBudget || t.issueUnits >= unitsCap ||
			i+1 == len(b.Insts) {
			pc = nextPC
			break
		}
		pc, i = nextPC, i+1
	}
	t.committed += uint64(ex.N)
	t.pc = pc
	return ex
}
