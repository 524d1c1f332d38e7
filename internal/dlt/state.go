package dlt

import "tridentsp/internal/checkpoint"

// Checkpoint serialization (DESIGN §12). Beyond the entries themselves, the
// effective associativity must travel: a chaos DLTSqueeze narrows
// cfg.Assoc at runtime (SetAssocLimit), and a restored table must keep
// evicting at the squeezed width until the squeeze's revert edge fires.

// Checkpoint walks the table.
func (t *Table) Checkpoint(c *checkpoint.Codec) {
	c.Mark("dlt")
	c.Int(&t.cfg.Assoc)
	if built := cap(t.sets[0]); c.Err() == nil && (t.cfg.Assoc < 1 || t.cfg.Assoc > built) {
		c.Failf("DLT associativity %d, built with %d ways", t.cfg.Assoc, built)
	}
	if !c.Count(len(t.sets), "DLT sets") {
		return
	}
	for i := range t.sets {
		checkpoint.Slice(c, &t.sets[i], func(c *checkpoint.Codec, en *Entry) {
			c.U64(&en.PC)
			c.U32(&en.Access)
			c.U32(&en.Miss)
			c.I64(&en.MissLatency)
			c.U64(&en.LastAddr)
			c.I64(&en.Stride)
			c.U8(&en.Confidence)
			c.Bool(&en.seenAddr)
			c.Bool(&en.Mature)
			c.Bool(&en.frozen)
			c.Bool(&en.valid)
		})
		if k := len(t.sets[i]); c.Err() == nil && k > t.cfg.Assoc {
			c.Failf("DLT set %d holds %d entries, associativity %d", i, k, t.cfg.Assoc)
		}
	}
	c.U64(&t.Events)
	c.U64(&t.Evictions)
}
