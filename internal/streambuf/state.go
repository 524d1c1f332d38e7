package streambuf

import "tridentsp/internal/checkpoint"

// Checkpoint serialization (DESIGN §12): the stride-detection table, the
// per-buffer run-ahead state, and the counters. Restores into an engine
// freshly built from the same Config.

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
	}
	c.U64(&s.Stats.Supplies)
	c.U64(&s.Stats.Fills)
	c.U64(&s.Stats.FillsDenied)
}
