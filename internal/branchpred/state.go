package branchpred

import (
	"fmt"

	"tridentsp/internal/checkpoint"
)

// Checkpoint serialization (DESIGN §12): counter tables, global history,
// and accuracy counters, restored into a predictor built from the same
// Config.

// SaveState serializes the predictor.
func (p *Predictor) SaveState(e *checkpoint.Encoder) {
	e.Mark("branchpred")
	e.Blob(p.gshare)
	e.Blob(p.bimodal)
	e.Blob(p.meta)
	e.U64(p.history)
	e.U64(p.Lookups)
	e.U64(p.Correct)
}

// LoadState restores state saved by SaveState. The tables are copied from
// the payload straight into the predictor's own, with no intermediate copy.
func (p *Predictor) LoadState(d *checkpoint.Decoder) error {
	d.Expect("branchpred")
	gshare := d.Raw(d.Len())
	bimodal := d.Raw(d.Len())
	meta := d.Raw(d.Len())
	if d.Err() != nil {
		return d.Err()
	}
	if len(gshare) != len(p.gshare) || len(bimodal) != len(p.bimodal) || len(meta) != len(p.meta) {
		return fmt.Errorf("%w: predictor table sizes %d/%d/%d, expected %d/%d/%d",
			checkpoint.ErrCorrupt, len(gshare), len(bimodal), len(meta),
			len(p.gshare), len(p.bimodal), len(p.meta))
	}
	copy(p.gshare, gshare)
	copy(p.bimodal, bimodal)
	copy(p.meta, meta)
	p.history = d.U64()
	p.Lookups = d.U64()
	p.Correct = d.U64()
	return d.Err()
}
