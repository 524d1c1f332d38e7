package streambuf

import "tridentsp/internal/checkpoint"

// Checkpoint serialization (DESIGN §12): the stride-detection table, the
// per-buffer run-ahead state, and the counters. Restores into an engine
// built from the same Config; the holder index is derived from the entries,
// so it is not serialized and a restore rebuilds it.

// Checkpoint walks the stream-buffer engine.
func (s *StreamBuffers) Checkpoint(c *checkpoint.Codec) {
	c.Mark("streambuf")
	if !c.Count(len(s.table), "stride-table entries") {
		return
	}
	for i := range s.table {
		t := &s.table[i]
		c.U64(&t.pc)
		c.U64(&t.lastAddr)
		c.I64(&t.stride)
		c.U8(&t.conf)
		c.Bool(&t.valid)
	}
	if !c.Count(len(s.buffers), "stream buffers") {
		return
	}
	for i := range s.buffers {
		b := &s.buffers[i]
		checkpoint.Slice(c, &b.entries, func(c *checkpoint.Codec, be *bufEntry) {
			c.U64(&be.line)
			c.I64(&be.ready)
		})
		if k := len(b.entries); c.Err() == nil && k > s.cfg.BufferEntries {
			c.Failf("stream buffer %d holds %d entries, depth %d", i, k, s.cfg.BufferEntries)
		}
		c.U64(&b.nextLine)
		c.I64(&b.stride)
		c.I64(&b.lastUse)
		c.Bool(&b.active)
		if c.Loading() && c.Err() == nil {
			checkBuffer(c, i, b)
		}
	}
	if c.Loading() {
		s.rebuildHolders()
	}
	c.U64(&s.Stats.Supplies)
	c.U64(&s.Stats.Fills)
	c.U64(&s.Stats.FillsDenied)
}

// checkBuffer refuses loaded buffer state no run produces. Only allocate
// sets active and nothing clears it, so an inactive buffer lists no entries
// (the holder index would expose them to Lookup and Contains);
// refillTo steps a non-zero line stride, so no buffer lists a line twice.
func checkBuffer(c *checkpoint.Codec, i int, b *buffer) {
	if !b.active && len(b.entries) > 0 {
		c.Failf("stream buffer %d is inactive but lists %d entries", i, len(b.entries))
		return
	}
	for j, e := range b.entries {
		for _, f := range b.entries[:j] {
			if f.line == e.line {
				c.Failf("stream buffer %d lists line %#x twice", i, e.line)
				return
			}
		}
	}
}

// rebuildHolders recomputes the holder index from the buffers' entries.
func (s *StreamBuffers) rebuildHolders() {
	clear(s.holders)
	for bi := range s.buffers {
		for _, e := range s.buffers[bi].entries {
			s.holders[s.slotOf(e.line)] |= 1 << uint(bi)
		}
	}
}
