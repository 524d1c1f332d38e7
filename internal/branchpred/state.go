package branchpred

import "tridentsp/internal/checkpoint"

// Checkpoint serialization (DESIGN §12): counter tables, global history,
// and accuracy counters, restored into a predictor built from the same
// Config.

// Checkpoint walks the predictor. Each counter table travels as one Raw
// run, so loading copies it from the payload straight into the
// predictor's own table with no intermediate copy.
func (p *Predictor) Checkpoint(c *checkpoint.Codec) {
	c.Mark("branchpred")
	for _, tab := range [][]byte{p.gshare, p.bimodal, p.meta} {
		c.Count(len(tab), "predictor counters")
		if raw := c.Raw(len(tab)); c.Loading() {
			copy(tab, raw)
		} else {
			copy(raw, tab)
		}
	}
	c.U64(&p.history)
	c.U64(&p.Lookups)
	c.U64(&p.Correct)
}
