package hwpref

import "tridentsp/internal/checkpoint"

// Checkpoint serialization (DESIGN §12): the epoch machinery, the decision
// count, and each engine's buffer, counters, and predictor tables. Restores
// into a selector freshly built from the same Config and backend list; a
// different arsenal shape fails structural validation instead of silently
// diverging.

// Checkpoint walks the selector.
func (s *Selector) Checkpoint(c *checkpoint.Codec) {
	c.Mark("hwpref")
	if !c.Count(len(s.engines), "arsenal backends") {
		return
	}
	c.U64(&s.loads)
	c.Int(&s.active)
	c.Bool(&s.probing)
	c.Int(&s.probeIdx)
	c.U64(&s.epochEnd)
	c.I64(&s.markCycle)
	c.U64(&s.rounds)
	c.U64(&s.switches)
	c.Int(&s.lastWin)
	c.U64(&s.boost)
	if c.Err() == nil && (s.boost < 1 || s.boost > maxBoost) {
		c.Failf("arsenal exploit boost %d outside 1..%d", s.boost, maxBoost)
	}
	if n := len(s.engines); c.Err() == nil && (s.active < 0 || s.active >= n ||
		s.probeIdx < 0 || s.probeIdx >= n || s.lastWin < 0 || s.lastWin >= n) {
		c.Failf("arsenal backend index out of range (active=%d probe=%d win=%d of %d)",
			s.active, s.probeIdx, s.lastWin, n)
	}
	for i := range s.engines {
		c.I64(&s.scores[i])
		c.U64(&s.residency[i])
	}
	c.U64(&s.decisionCount)
	s.buf.checkpoint(c, len(s.engines))
	for _, en := range s.engines {
		name := en.backend.Name()
		c.Str(&name)
		if c.Err() == nil && name != en.backend.Name() {
			c.Failf("checkpoint arsenal backend %q, this machine has %q — different prefetch configuration",
				name, en.backend.Name())
		}
		en.backend.checkpoint(c)
		c.U64(&en.stats.Fills)
		c.U64(&en.stats.FillsDenied)
		c.U64(&en.stats.Supplies)
		c.U64(&en.stats.EvictedUnused)
	}
}

// checkpoint walks the buffered lines oldest first as one length-prefixed
// sequence. Loading rebuilds the FIFO and the line index from it and
// refuses a line listed twice: no save writes one (issue dedups), and the
// index holds one slot per line.
func (b *lineBuf) checkpoint(c *checkpoint.Codec, backends int) {
	var lines []bufLine
	if !c.Loading() {
		lines = b.lines()
	}
	checkpoint.Slice(c, &lines, func(c *checkpoint.Codec, bl *bufLine) {
		c.U64(&bl.line)
		c.I64(&bl.ready)
		c.Int(&bl.by)
		if c.Err() == nil && (bl.by < 0 || bl.by >= backends) {
			c.Failf("buffered line issued by backend %d of %d", bl.by, backends)
		}
	})
	if !c.Loading() || c.Err() != nil {
		return
	}
	if len(lines) > len(b.slots)-1 {
		c.Failf("prefetch buffer holds %d lines, capacity %d", len(lines), len(b.slots)-1)
		return
	}
	b.reset()
	for _, bl := range lines {
		if b.find(bl.line) != nilSlot {
			c.Failf("prefetch buffer holds line %#x twice", bl.line)
			return
		}
		b.push(bl)
	}
}
