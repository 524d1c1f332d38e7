package trace

import "tridentsp/internal/checkpoint"

// Checkpoint serialization (DESIGN §12) for trace bodies. Traces are
// referenced from both the code cache (placements) and the optimizer
// (version bases); each reference serializes its own copy — content
// equality is the contract, pointer identity is not (nothing in the
// framework mutates a trace body after placement; new versions are fresh
// objects).

// Checkpoint walks the trace *t. Loading replaces *t with a fresh trace
// rather than overwriting the body it pointed to, which other references
// may share.
func Checkpoint(c *checkpoint.Codec, t **Trace) {
	if c.Loading() {
		*t = new(Trace)
	}
	tr := *t
	c.Mark("trace")
	c.Int(&tr.ID)
	c.U64(&tr.StartPC)
	checkpoint.Slice(c, &tr.Insts, func(c *checkpoint.Codec, ti *Inst) {
		ti.Inst.Checkpoint(c)
		checkpoint.Enum(c, &ti.Kind)
		c.U64(&ti.OrigPC)
		c.U64(&ti.ExitTarget)
		c.Int(&ti.Weight)
		c.Bool(&ti.Inserted)
	})
}
