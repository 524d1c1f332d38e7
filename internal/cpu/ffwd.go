package cpu

import (
	"tridentsp/internal/branchpred"
	"tridentsp/internal/checkpoint"
	"tridentsp/internal/isa"
	"tridentsp/internal/memsys"
)

// Functional fast-forward execution (DESIGN §14). Between detailed sampling
// intervals the machine advances architecturally only: registers, PC, and
// data memory evolve exactly as Step would evolve them, but no cycles are
// charged, no issue slots accounted, and no figure statistics recorded. The
// executor runs over the *pristine* predecoded image — architectural
// transparency (the invariant the whole optimizer rests on) guarantees the
// patched image computes the same results, and the pristine image is
// config-independent, which is what makes region-of-interest checkpoints
// reusable across every machine configuration.

// FFProbes optionally warms microarchitectural state during functional
// execution. A nil *FFProbes (or nil field) skips that structure entirely —
// the pure mode used for the bulk of a fast-forward interval; the warm mode
// runs over the interval's tail so caches, the branch predictor, stream
// buffers, and the DLT enter the next detailed interval with plausible
// contents instead of cold state.
type FFProbes struct {
	// Hier receives WarmLoad/WarmStore/WarmPrefetch probes: tag-array and
	// recency updates only, never MSHR entries, bus occupancy, or fill
	// events (the clock is frozen, so a pending fill could never retire).
	Hier *memsys.Hierarchy
	// BP trains the direction predictor's tables without touching its
	// accuracy counters.
	BP *branchpred.Predictor
	// Load, when set, observes every LD with its warm-probe L1 outcome
	// (the sampling controller feeds the DLT's warm path through it).
	Load func(pc, addr uint64, l1Miss bool, now int64)
	// Now is the warm pseudo-clock, advanced by one per instruction. The
	// real clock is frozen during fast-forward, but warm state carries
	// timestamps (stream-buffer LRU and reuse shields); the controller
	// starts Now far enough below the frozen cycle that the warm window
	// ends exactly at it, so no warm timestamp lies in the future.
	Now int64
}

// ExecFunctional executes up to budget instructions architecturally over the
// predecoded image insts based at base, returning how many retired. The
// thread's registers, PC, data memory, and halted flag advance exactly as
// the timing interpreter would advance them; cycle, issue, stall, and commit
// accounting stay untouched. Register taint (a timing-only classification)
// is reset — after a functional gap the load-derivedness of values is
// unknown, and clean is the conservative restart.
//
// Execution stops at the budget, at HALT or an unknown opcode (halted, like
// Step, and not counted), or when PC leaves the image (a fetch fault; the
// pristine image has no trace links, so original code never legitimately
// escapes it). Like Step, the fault is taken on the fetch after the
// instruction that left, so a budget that ends on that instruction leaves
// the thread running at the outside PC and the next call halts it.
//
// The loop tracks the instruction index rather than the PC: straight-line
// code needs only the end-of-image compare, and the full bounds and
// alignment check runs where control flow changes. Destination registers
// are written unconditionally and r31 is re-zeroed after each instruction,
// which leaves it reading zero exactly as the guarded writes of Step do.
func (t *Thread) ExecFunctional(insts []isa.Inst, base uint64, budget uint64, p *FFProbes) uint64 {
	if t.halted || budget == 0 {
		return 0
	}
	t.taintSrc = [isa.NumRegs]uint64{}
	n := uint64(len(insts))
	size := n * isa.WordSize
	off := t.pc - base
	if off >= size || off%isa.WordSize != 0 {
		t.halted = true
		return 0
	}
	// Probe pointers hoisted once: pure mode (p == nil) and warm mode share
	// the loop, and each probe costs one nil compare where it applies.
	var (
		hier   *memsys.Hierarchy
		bp     *branchpred.Predictor
		onLoad func(pc, addr uint64, l1Miss bool, now int64)
		now    int64
	)
	if p != nil {
		hier, bp, now = p.Hier, p.BP, p.Now
		if hier != nil {
			onLoad = p.Load
		}
	}
	regs := &t.regs
	mem := t.mem
	i := off / isa.WordSize
	// exit is the PC control left the image for; valid once next >= n.
	var exit uint64
	var done uint64
	for {
		in := &insts[i]
		next := i + 1
		switch in.Op {
		case isa.NOP:

		case isa.ADD:
			regs[in.Rd] = regs[in.Ra] + regs[in.Rb]
		case isa.SUB:
			regs[in.Rd] = regs[in.Ra] - regs[in.Rb]
		case isa.MUL:
			regs[in.Rd] = regs[in.Ra] * regs[in.Rb]
		case isa.AND:
			regs[in.Rd] = regs[in.Ra] & regs[in.Rb]
		case isa.OR:
			regs[in.Rd] = regs[in.Ra] | regs[in.Rb]
		case isa.XOR:
			regs[in.Rd] = regs[in.Ra] ^ regs[in.Rb]
		case isa.SLL:
			regs[in.Rd] = regs[in.Ra] << (regs[in.Rb] & 63)
		case isa.SRL:
			regs[in.Rd] = regs[in.Ra] >> (regs[in.Rb] & 63)
		case isa.CMPLT:
			regs[in.Rd] = b2u(int64(regs[in.Ra]) < int64(regs[in.Rb]))
		case isa.CMPEQ:
			regs[in.Rd] = b2u(regs[in.Ra] == regs[in.Rb])

		case isa.ADDI, isa.LDA:
			regs[in.Rd] = regs[in.Ra] + uint64(in.Imm)
		case isa.SUBI:
			regs[in.Rd] = regs[in.Ra] - uint64(in.Imm)
		case isa.MULI:
			regs[in.Rd] = regs[in.Ra] * uint64(in.Imm)
		case isa.ANDI:
			regs[in.Rd] = regs[in.Ra] & uint64(in.Imm)
		case isa.ORI:
			regs[in.Rd] = regs[in.Ra] | uint64(in.Imm)
		case isa.XORI:
			regs[in.Rd] = regs[in.Ra] ^ uint64(in.Imm)
		case isa.SLLI:
			regs[in.Rd] = regs[in.Ra] << (uint64(in.Imm) & 63)
		case isa.SRLI:
			regs[in.Rd] = regs[in.Ra] >> (uint64(in.Imm) & 63)
		case isa.CMPLTI:
			regs[in.Rd] = b2u(int64(regs[in.Ra]) < in.Imm)
		case isa.CMPEQI:
			regs[in.Rd] = b2u(regs[in.Ra] == uint64(in.Imm))
		case isa.MOVE:
			regs[in.Rd] = regs[in.Ra]
		case isa.LDI:
			regs[in.Rd] = uint64(in.Imm)
		case isa.LDIH:
			regs[in.Rd] = regs[in.Ra]<<32 | uint64(uint32(in.Imm))

		case isa.FADD:
			regs[in.Rd] = regs[in.Ra] + regs[in.Rb]
		case isa.FMUL:
			regs[in.Rd] = regs[in.Ra] * regs[in.Rb]
		case isa.FDIV:
			regs[in.Rd] = fdiv(regs[in.Ra], regs[in.Rb])

		case isa.LD:
			addr := regs[in.Ra] + uint64(in.Imm)
			if hier != nil {
				pc := base + i*isa.WordSize
				l1Miss := hier.WarmLoad(pc, addr, now)
				if onLoad != nil {
					onLoad(pc, addr, l1Miss, now)
				}
			}
			regs[in.Rd] = mem.Load(addr)

		case isa.LDNF:
			addr := regs[in.Ra] + uint64(in.Imm)
			if hier != nil {
				hier.WarmPrefetch(addr)
			}
			var v uint64
			if mem.Valid(addr) {
				v = mem.Load(addr)
			}
			regs[in.Rd] = v

		case isa.ST:
			addr := regs[in.Ra] + uint64(in.Imm)
			mem.Store(addr, regs[in.Rb])
			if hier != nil {
				hier.WarmStore(addr)
			}

		case isa.PREFETCH:
			if hier != nil {
				hier.WarmPrefetch(regs[in.Ra] + uint64(in.Imm))
			}

		case isa.BR:
			regs[in.Rd] = base + next*isa.WordSize
			exit = base + (next+uint64(in.Imm))*isa.WordSize
			next = jumpIndex(exit, base, size)

		case isa.JMP:
			// The target is read before the link is written: rd may be ra.
			exit = regs[in.Ra] &^ 7
			regs[in.Rd] = base + next*isa.WordSize
			next = jumpIndex(exit, base, size)

		case isa.BEQ, isa.BNE, isa.BLT, isa.BGE:
			taken := evalBranch(in.Op, regs[in.Ra])
			if bp != nil {
				bp.Warm(base+i*isa.WordSize, taken)
			}
			if taken {
				exit = base + (next+uint64(in.Imm))*isa.WordSize
				next = jumpIndex(exit, base, size)
			}

		default: // HALT, or an unknown opcode: halted like Step, uncounted
			t.halted = true
			t.pc = base + next*isa.WordSize
			if p != nil {
				p.Now = now
			}
			return done
		}
		regs[isa.ZeroReg] = 0
		done++
		now++
		if next >= n {
			// Control left the image: off the end, or a jump outside it.
			if next == n {
				exit = base + size
			}
			t.pc = exit
			if done < budget {
				t.halted = true
			}
			break
		}
		i = next
		if done == budget {
			t.pc = base + i*isa.WordSize
			break
		}
	}
	if p != nil {
		p.Now = now
	}
	return done
}

// jumpIndex maps a control-transfer target to its instruction index, or to
// an index past the image (^0) when the target is outside it or unaligned.
func jumpIndex(target, base, size uint64) uint64 {
	off := target - base
	if off >= size || off%isa.WordSize != 0 {
		return ^uint64(0)
	}
	return off / isa.WordSize
}

// SetPC redirects the thread. The sampling controller uses it to map a
// code-cache PC back to the equivalent original-program PC before a
// functional gap; the next fetch resumes there.
func (t *Thread) SetPC(pc uint64) { t.pc = pc }

// SaveArchState serializes only the architectural thread state — registers,
// PC, halted — the portable slice a region-of-interest checkpoint carries.
// Timing state (cycle, stalls, issue slots, taint, commit count) is
// config-dependent and deliberately excluded.
func (t *Thread) SaveArchState(e *checkpoint.Encoder) {
	e.Mark("cpu.arch")
	for _, r := range t.regs {
		e.U64(r)
	}
	e.U64(t.pc)
	e.Bool(t.halted)
}

// LoadArchState restores what SaveArchState wrote, leaving timing state
// untouched.
func (t *Thread) LoadArchState(d *checkpoint.Decoder) error {
	d.Expect("cpu.arch")
	for i := range t.regs {
		t.regs[i] = d.U64()
	}
	t.pc = d.U64()
	t.halted = d.Bool()
	return d.Err()
}
