// Package branchpred implements the simulated branch predictor: a
// 2bcgskew-flavoured hybrid of a gshare predictor and a bimodal table
// selected by a meta chooser, as in the paper's Table 1 ("2bcgskew, 64K
// entry Meta and gshare, 16K entry bimodal table").
//
// Only conditional branch direction is predicted; the synthetic ISA's
// unconditional branches and jumps are resolved in decode, and the paper's
// evaluation is data-cache bound, so a faithful direction predictor with the
// right accuracy profile is what matters.
package branchpred

// Config sizes the predictor tables (entries, each a 2-bit counter).
type Config struct {
	GshareEntries  int
	BimodalEntries int
	MetaEntries    int
	HistoryBits    uint
}

// DefaultConfig mirrors Table 1: 64K gshare and meta, 16K bimodal.
func DefaultConfig() Config {
	return Config{
		GshareEntries:  64 << 10,
		BimodalEntries: 16 << 10,
		MetaEntries:    64 << 10,
		HistoryBits:    16,
	}
}

// Predictor is a hybrid two-level direction predictor.
type Predictor struct {
	cfg     Config
	gshare  []uint8
	bimodal []uint8
	meta    []uint8
	history uint64

	// Stats.
	Lookups uint64
	Correct uint64
}

// New builds a predictor. Table sizes are rounded down to powers of two.
func New(cfg Config) *Predictor {
	p := &Predictor{cfg: cfg}
	p.gshare = newTable(cfg.GshareEntries)
	p.bimodal = newTable(cfg.BimodalEntries)
	p.meta = newTable(cfg.MetaEntries)
	return p
}

func newTable(n int) []uint8 {
	size := 1
	for size*2 <= n {
		size *= 2
	}
	t := make([]uint8, size)
	t[0] = 1 // weakly not-taken, then doubled across the table
	for n := 1; n < size; n *= 2 {
		copy(t[n:], t[:n])
	}
	return t
}

func taken(counter uint8) bool { return counter >= 2 }

func bump(c uint8, t bool) uint8 {
	if t {
		if c < 3 {
			return c + 1
		}
		return c
	}
	if c > 0 {
		return c - 1
	}
	return c
}

func (p *Predictor) gshareIndex(pc uint64) uint64 {
	return (pc>>3 ^ p.history) & uint64(len(p.gshare)-1)
}

func (p *Predictor) bimodalIndex(pc uint64) uint64 {
	return (pc >> 3) & uint64(len(p.bimodal)-1)
}

func (p *Predictor) metaIndex(pc uint64) uint64 {
	return (pc >> 3) & uint64(len(p.meta)-1)
}

// Predict returns the predicted direction for the conditional branch at pc.
func (p *Predictor) Predict(pc uint64) bool {
	if taken(p.meta[p.metaIndex(pc)]) {
		return taken(p.gshare[p.gshareIndex(pc)])
	}
	return taken(p.bimodal[p.bimodalIndex(pc)])
}

// Update trains the predictor with the actual outcome and returns whether
// the earlier prediction was correct (recomputed internally so callers need
// not carry it).
func (p *Predictor) Update(pc uint64, outcome bool) bool {
	gi, bi, mi := p.gshareIndex(pc), p.bimodalIndex(pc), p.metaIndex(pc)
	gPred := taken(p.gshare[gi])
	bPred := taken(p.bimodal[bi])
	pred := bPred
	if taken(p.meta[mi]) {
		pred = gPred
	}

	// Train the chooser toward the component that was right.
	if gPred != bPred {
		p.meta[mi] = bump(p.meta[mi], gPred == outcome)
	}
	p.gshare[gi] = bump(p.gshare[gi], outcome)
	p.bimodal[bi] = bump(p.bimodal[bi], outcome)
	p.history = p.history<<1 | b2u(outcome)

	p.Lookups++
	if pred == outcome {
		p.Correct++
	}
	return pred == outcome
}

// Warm trains the tables and history with an observed outcome without
// touching the accuracy counters — the warmup path of sampled simulation
// (DESIGN §14): functional fast-forward keeps the predictor's state current
// so the next detailed interval starts from trained tables, while Lookups
// and Correct remain a record of detailed execution only.
func (p *Predictor) Warm(pc uint64, outcome bool) {
	gi, bi, mi := p.gshareIndex(pc), p.bimodalIndex(pc), p.metaIndex(pc)
	gPred := taken(p.gshare[gi])
	bPred := taken(p.bimodal[bi])
	if gPred != bPred {
		p.meta[mi] = bump(p.meta[mi], gPred == outcome)
	}
	p.gshare[gi] = bump(p.gshare[gi], outcome)
	p.bimodal[bi] = bump(p.bimodal[bi], outcome)
	p.history = p.history<<1 | b2u(outcome)
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// Accuracy returns the fraction of correct predictions so far.
func (p *Predictor) Accuracy() float64 {
	if p.Lookups == 0 {
		return 1
	}
	return float64(p.Correct) / float64(p.Lookups)
}
