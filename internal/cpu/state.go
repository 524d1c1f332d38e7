package cpu

import "tridentsp/internal/checkpoint"

// Checkpoint serialization (DESIGN §12). State methods restore into an
// object freshly constructed from the same configuration and program: wiring
// (code space, memory, hierarchy, predictor) and derived constants
// (unitsPerCycle/unitsPerInst) come from construction, only mutable run
// state travels in the stream.

// Checkpoint walks the thread's architectural and timing state.
func (t *Thread) Checkpoint(c *checkpoint.Codec) {
	c.Mark("cpu.thread")
	checkpoint.Words(c, t.regs[:])
	c.U64(&t.pc)
	c.I64(&t.issueUnits)
	c.I64(&t.stallCycles)
	c.Bool(&t.interfering)
	checkpoint.Words(c, t.taintSrc[:])
	c.U64(&t.committed)
	c.Bool(&t.halted)
}

// CheckpointArch walks only the architectural thread state — registers,
// PC, halted — the portable slice a region-of-interest checkpoint carries.
// Timing state (cycle, stalls, issue slots, taint, commit count) is
// config-dependent and deliberately excluded; loading leaves it untouched.
func (t *Thread) CheckpointArch(c *checkpoint.Codec) {
	c.Mark("cpu.arch")
	checkpoint.Words(c, t.regs[:])
	c.U64(&t.pc)
	c.Bool(&t.halted)
}

// Checkpoint walks the decoded program image, which linking patches in
// place. The block cache is deliberately excluded: it is a pure cache over
// insts and rebuilds lazily after restore (see DESIGN §12 on the
// engine-cache exclusion). Loading decodes the instruction slice in place
// so the block cache's source pointer stays valid, and a generation bump
// discards any stale decoded blocks.
func (s *ProgramSpace) Checkpoint(c *checkpoint.Codec) {
	c.Mark("cpu.progspace")
	base := s.base
	c.U64(&base)
	if c.Err() == nil && base != s.base {
		c.Failf("program image based at %#x, this machine's at %#x", base, s.base)
	}
	c.Count(len(s.insts), "program instructions")
	for i := range s.insts {
		s.insts[i].Checkpoint(c)
	}
	if c.Loading() {
		s.blocks.Invalidate()
		// The JIT tier is never serialized; the generation bump above
		// already quarantines stale chains, and the eager drop keeps a
		// restore into a live machine (the sentinel's rewind) from pinning
		// dead compiled code.
		s.blocks.DropCompiled()
	}
}
