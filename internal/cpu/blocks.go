package cpu

import (
	"tridentsp/internal/isa"
)

// This file implements the second level of the simulator's fast path: a
// decoded superblock cache over a code image. A superblock is a maximal
// straight-line run of instructions the batch executor (ExecSuperBlock) can
// retire without the full Step dispatch: register-only ALU work, memory
// operations that stay on the hierarchy's fast paths (loads that hit L1,
// non-blocking stores and prefetches), and one optional conditional branch
// terminating the run — included so a hot loop's back-edge can fold the
// block onto itself and whole iterations retire per call. Everything
// event-driven (chaos edges, watchdog probes, the helper-thread pump)
// happens between batches, at the same instruction boundaries the one-step
// loop would have used; anything that charges stalls or redirects control
// unpredictably (FDIV, jumps, HALT, patched words) ends the block and falls
// back to step().

// memberKind classifies an opcode's role in a superblock.
type memberKind uint8

const (
	// memberNo: not batchable — ends the block, excluded.
	memberNo memberKind = iota
	// memberPlain: reads and writes registers only, at the fixed
	// one-issue-slot cost (FDIV is excluded: it charges stallCycles).
	memberPlain
	// memberMem: LD/LDNF/ST/PREFETCH — batchable. A load the L1-hit probe
	// declines retires through the full access and ends the batch after
	// it; a store the probe declines stops the batch before it, with
	// exact resume state.
	memberMem
	// memberBranch: a conditional branch — included as the block's final
	// instruction so the executor can resolve it inline (with the real
	// predictor) and fold a taken back-edge to the block entry.
	memberBranch
)

// blockMember classifies op. Only conditional branches terminate a block
// while belonging to it; BR/JMP/HALT and FDIV end the scan outright.
func blockMember(op isa.Op) memberKind {
	switch op {
	case isa.NOP,
		isa.ADD, isa.SUB, isa.MUL, isa.AND, isa.OR, isa.XOR,
		isa.SLL, isa.SRL, isa.CMPLT, isa.CMPEQ,
		isa.ADDI, isa.SUBI, isa.MULI, isa.ANDI, isa.ORI, isa.XORI,
		isa.SLLI, isa.SRLI, isa.CMPLTI, isa.CMPEQI,
		isa.LDA, isa.MOVE, isa.LDI, isa.LDIH,
		isa.FADD, isa.FMUL:
		return memberPlain
	case isa.LD, isa.LDNF, isa.ST, isa.PREFETCH:
		return memberMem
	case isa.BEQ, isa.BNE, isa.BLT, isa.BGE:
		return memberBranch
	}
	return memberNo
}

// Block is one superblock: a straight-line run of member instructions, with
// at most one conditional branch, in final position. The slices alias the
// owning cache's decoded image, so a Block is only valid until the next
// patch or placement; callers fetch a fresh one per batch.
type Block struct {
	Insts []isa.Inst
	// Weights holds per-instruction original-instruction weights (code-cache
	// traces carry 0 for inserted code, >1 for folded code). nil means every
	// instruction weighs exactly 1 (original program code).
	Weights []int
}

// blockEnt memoizes the block length starting at one word index. gen tags
// the entry with the cache generation it was computed under, so a patch
// invalidates every entry with a single counter bump instead of a sweep.
type blockEnt struct {
	gen uint64
	n   int32
}

// BlockStats counts block-cache activity: descriptor reuse (Hits), lazy
// re-derivations after invalidation (Rebuilds), generation bumps
// (Invalidations), and JIT-tier promotions (Compiles). Always on — counter
// increments on paths that already do real work — and snapshotted into the
// telemetry registry.
type BlockStats struct {
	Hits          uint64
	Rebuilds      uint64
	Invalidations uint64
	Compiles      uint64
	Revalidations uint64
}

// jitEnt memoizes the JIT tier's state for the block starting at one word
// index: a heat counter while the block warms up, then the compiled closure
// chain. gen tags the entry like blockEnt's, so every patch invalidates the
// compiled tier with the same single counter bump — stale entries reset
// (heat and all) on first use under the new generation.
type jitEnt struct {
	gen  uint64
	heat uint32
	cb   *CompiledBlock
}

// BlockCache lazily maps instruction addresses to Blocks over one decoded
// image. Invalidation is O(1): any mutation of the image bumps gen, and
// stale entries rebuild on first use.
type BlockCache struct {
	base    uint64
	insts   []isa.Inst
	weights []int
	gen     uint64
	ents    []blockEnt
	jents   []jitEnt

	stats BlockStats
}

// NewBlockCache creates an empty cache; SetSource attaches the image.
func NewBlockCache(base uint64) *BlockCache {
	return &BlockCache{base: base, gen: 1}
}

// SetSource (re)points the cache at the decoded image and drops every cached
// descriptor. Call it whenever the image slice may have been reallocated,
// extended, or truncated (e.g. a trace placement appending to the code
// cache); for in-place word patches Invalidate suffices.
func (c *BlockCache) SetSource(insts []isa.Inst, weights []int) {
	c.insts, c.weights = insts, weights
	c.gen++
	c.stats.Invalidations++
	// Replace the entry arrays rather than appending over (or re-slicing)
	// the old ones: every memoized descriptor is stale under the new image,
	// and recycling the arrays would keep gen-guarded stale entries alive
	// across regrowth — the regrowth-pinning bug this fixed. Plain block
	// lengths start empty; JIT entries are carried over by value (truncation
	// drops the tail) because word indices are stable under append-style
	// regrowth and every carried entry is gen-stale, so its first use under
	// the new generation revalidates the chain against current content (see
	// AtCompiled) — a placement that appends a trace must not throw away the
	// whole compiled tier. Entries whose content did change reset on first
	// use; DropCompiled covers the paths that must release chains eagerly.
	c.ents = make([]blockEnt, len(insts))
	old := c.jents
	c.jents = make([]jitEnt, len(insts))
	copy(c.jents, old)
}

// Invalidate drops every cached descriptor (the image was patched in place).
// The JIT tier is covered by the same bump: compiled chains are keyed by
// (word, gen) and reset lazily on first use under the new generation.
func (c *BlockCache) Invalidate() {
	c.gen++
	c.stats.Invalidations++
}

// DropCompiled eagerly discards every compiled block and heat counter. The
// generation counter already quarantines them lazily; this is for the paths
// that will never touch the entries again and must not keep them reachable —
// sentinel demotion (the fast path is disabled for the rest of the run) and
// checkpoint restore into a live machine.
func (c *BlockCache) DropCompiled() {
	for i := range c.jents {
		c.jents[i] = jitEnt{}
	}
}

// Stats returns the activity counters.
func (c *BlockCache) Stats() BlockStats { return c.stats }

// ResetStats zeroes the activity counters.
func (c *BlockCache) ResetStats() { c.stats = BlockStats{} }

// At returns the superblock starting at pc. ok is false when pc is outside
// the image, unaligned, or the instruction at pc is not a block member.
func (c *BlockCache) At(pc uint64) (Block, bool) {
	if pc < c.base || pc%isa.WordSize != 0 {
		return Block{}, false
	}
	i := (pc - c.base) / isa.WordSize
	if i >= uint64(len(c.insts)) {
		return Block{}, false
	}
	e := &c.ents[i]
	if e.gen == c.gen {
		c.stats.Hits++
	} else {
		c.stats.Rebuilds++
		n := 0
	scan:
		for j := int(i); j < len(c.insts); j++ {
			switch blockMember(c.insts[j].Op) {
			case memberPlain, memberMem:
				n++
			case memberBranch:
				n++
				break scan
			default:
				break scan
			}
		}
		e.gen, e.n = c.gen, int32(n)
	}
	if e.n == 0 {
		return Block{}, false
	}
	end := int(i) + int(e.n)
	b := Block{Insts: c.insts[i:end]}
	if c.weights != nil {
		b.Weights = c.weights[i:end]
	}
	return b, true
}

// CompiledAt is the launch-hot lookup: it returns the block's compiled
// chain iff one is resident under the current generation, touching nothing
// else — no block derivation, no heat, no stats. The fast path calls this
// first on every launch; a steady-state hot loop pays two bounds checks and
// a generation compare per batch instead of rebuilding block descriptors.
// Warm-up, revalidation, and compilation all stay in AtCompiled, which the
// caller falls back to on a miss.
func (c *BlockCache) CompiledAt(pc uint64) *CompiledBlock {
	if pc < c.base || pc%isa.WordSize != 0 {
		return nil
	}
	i := (pc - c.base) / isa.WordSize
	if i >= uint64(len(c.jents)) {
		return nil
	}
	e := &c.jents[i]
	if e.gen != c.gen {
		return nil
	}
	return e.cb
}

// AtCompiled is At plus the JIT tier: each lookup bumps the block's heat,
// and the lookup that crosses threshold compiles it — once per generation —
// into a closure chain. cb is nil while the block is warming up (run the
// interpreter); a patch or placement bumps gen and the entry restarts cold.
// threshold 0 compiles on first use.
func (c *BlockCache) AtCompiled(pc uint64, threshold uint32) (Block, *CompiledBlock, bool) {
	b, ok := c.At(pc)
	if !ok {
		return b, nil, false
	}
	e := &c.jents[(pc-c.base)/isa.WordSize]
	if e.gen != c.gen {
		if e.cb != nil && e.cb.Matches(b) {
			// The patch that bumped gen didn't touch this block: revalidate
			// the chain by content instead of re-warming and recompiling.
			// Self-repair's PatchImm fires constantly; without this, every
			// repair threw away the entire compiled tier.
			e.gen = c.gen
			c.stats.Revalidations++
		} else {
			*e = jitEnt{gen: c.gen}
		}
	}
	const dead = ^uint32(0) // Compile refused: stay interpreted this gen
	if e.cb == nil {
		if e.heat < threshold || e.heat == dead {
			if e.heat != dead {
				e.heat++
			}
			return b, nil, true
		}
		e.cb = Compile(b, pc)
		if e.cb == nil {
			// Not compilable (cannot happen for a block At derived, but a
			// refusal must not re-enter Compile every launch).
			e.heat = dead
			return b, nil, true
		}
		c.stats.Compiles++
	}
	return b, e.cb, true
}
