package trident

import (
	"tridentsp/internal/checkpoint"
	"tridentsp/internal/isa"
	"tridentsp/internal/trace"
)

// Checkpoint serialization (DESIGN §12) for the Trident hardware: branch
// profiler, watch table, value profile table, event queue, helper-thread
// scheduler, and the code cache. Each restores into an object freshly built
// from the same configuration.

// Checkpoint walks the branch profiler.
func (p *Profiler) Checkpoint(c *checkpoint.Codec) {
	c.Mark("trident.profiler")
	if !c.Count(len(p.sets), "profiler sets") {
		return
	}
	for i := range p.sets {
		checkpoint.Slice(c, &p.sets[i], func(c *checkpoint.Codec, en *profEntry) {
			c.U64(&en.target)
			c.U8(&en.counter)
			c.Bool(&en.formed)
			c.Bool(&en.valid)
		})
	}
	capturing := p.cap != nil
	c.Bool(&capturing)
	if c.Loading() {
		p.cap = nil
		if capturing {
			p.cap = &capture{}
		}
	}
	if p.cap != nil {
		c.U64(&p.cap.startPC)
		checkpoint.Slice(c, &p.cap.bits, (*checkpoint.Codec).Bool)
	}
	c.U64(&p.Events)
}

// Checkpoint walks the watch table in insertion order; loading rebuilds
// both maps from it.
func (t *WatchTable) Checkpoint(c *checkpoint.Codec) {
	c.Mark("trident.watch")
	n := c.Len(len(t.order))
	if c.Loading() {
		t.byStart = make(map[uint64]*WatchEntry, n)
		t.byID = make(map[int]*WatchEntry, n)
		t.order = t.order[:0]
	}
	for i := 0; i < n; i++ {
		var w *WatchEntry
		if c.Loading() {
			w = new(WatchEntry)
		} else {
			w = t.byStart[t.order[i]]
		}
		c.U64(&w.StartPC)
		c.Int(&w.TraceID)
		c.Int(&w.Length)
		c.I64(&w.MinExecTime)
		c.I64(&w.TotalExecTime)
		c.U64(&w.Traversals)
		c.Bool(&w.OptFlag)
		if c.Loading() {
			t.byStart[w.StartPC] = w
			t.byID[w.TraceID] = w
			t.order = append(t.order, w.StartPC)
		}
	}
}

// Checkpoint walks the value profile table.
func (v *VPT) Checkpoint(c *checkpoint.Codec) {
	c.Mark("trident.vpt")
	if !c.Count(len(v.sets), "VPT sets") {
		return
	}
	for i := range v.sets {
		checkpoint.Slice(c, &v.sets[i], func(c *checkpoint.Codec, en *VPTEntry) {
			c.U64(&en.PC)
			c.U64(&en.LastValue)
			c.U8(&en.Confidence)
			c.U32(&en.Hits)
			c.Bool(&en.Specialized)
			c.Bool(&en.valid)
		})
	}
	c.U64(&v.Events)
}

// Checkpoint walks the event queue.
func (q *Queue) Checkpoint(c *checkpoint.Codec) {
	c.Mark("trident.queue")
	checkpoint.Slice(c, &q.events, func(c *checkpoint.Codec, ev *Event) {
		checkpoint.Enum(c, &ev.Kind)
		c.I64(&ev.Raised)
		c.U64(&ev.Hot.StartPC)
		checkpoint.Slice(c, &ev.Hot.Bitmap, (*checkpoint.Codec).Bool)
		c.U64(&ev.LoadPC)
		c.Int(&ev.TraceID)
	})
	c.U64(&q.Raised)
	c.U64(&q.Dropped)
}

// Checkpoint walks the helper-thread scheduler.
func (h *Helper) Checkpoint(c *checkpoint.Codec) {
	c.Mark("trident.helper")
	c.I64(&h.busyUntil)
	c.U64(&h.Invocations)
	c.I64(&h.ActiveCycles)
	c.U64(&h.Preemptions)
}

// Checkpoint walks the code cache: the placed words and weights (the
// binary truth), plus every placement with its trace body. Loading
// regenerates the decoded instruction mirror from the words and re-anchors
// the block cache to the rebuilt slices.
func (cc *CodeCache) Checkpoint(c *checkpoint.Codec) {
	c.Mark("trident.codecache")
	base := cc.base
	c.U64(&base)
	if c.Err() == nil && base != cc.base {
		c.Failf("code cache based at %#x, this machine's at %#x", base, cc.base)
	}
	n := c.Len(len(cc.words))
	if c.Loading() {
		cc.words = make([]uint64, n)
		cc.weights = make([]int, n)
		cc.placements = nil
	}
	checkpoint.Words(c, cc.words)
	if k := c.Len(len(cc.weights)); c.Err() == nil && k != n {
		c.Failf("code cache has %d weights for %d words", k, n)
	}
	checkpoint.Words(c, cc.weights)
	c.Int(&cc.nextID)
	limit := cc.base + uint64(n)*isa.WordSize
	checkpoint.Slice(c, &cc.placements, func(c *checkpoint.Codec, pl *Placement) {
		c.Int(&pl.TraceID)
		c.U64(&pl.Start)
		c.U64(&pl.End)
		c.Bool(&pl.Live)
		trace.Checkpoint(c, &pl.Trace)
		// Execution indexes the trace body by an address's offset into the
		// placement, so the body must span the placement exactly.
		if c.Err() == nil && (pl.Start < cc.base || pl.Start > limit || pl.End > limit ||
			pl.End != pl.Start+uint64(len(pl.Trace.Insts))*isa.WordSize) {
			c.Failf("trace %d placed at [%#x, %#x) does not fit its %d-instruction body in the code cache",
				pl.TraceID, pl.Start, pl.End, len(pl.Trace.Insts))
		}
	})
	if c.Loading() {
		cc.insts = make([]isa.Inst, n)
		for i, w := range cc.words {
			cc.insts[i] = isa.Decode(w)
		}
		cc.blocks.SetSource(cc.insts, cc.weights)
		// SetSource carries compiled chains across by value (for
		// append-style regrowth); a restore is not regrowth. Drop them, as
		// ProgramSpace's walk does, so a machine restored after running
		// another window continues exactly as a fresh machine restored
		// from the same bytes.
		cc.blocks.DropCompiled()
	}
}

// PlacementIndex returns the slice index of a placement pointer (for
// serializing cross-references to placements), or -1 for nil. A pointer
// that no longer addresses the live slice falls back to TraceID identity.
func (c *CodeCache) PlacementIndex(pl *Placement) int {
	if pl == nil {
		return -1
	}
	for i := range c.placements {
		if &c.placements[i] == pl {
			return i
		}
	}
	for i := range c.placements {
		if c.placements[i].TraceID == pl.TraceID {
			return i
		}
	}
	return -1
}

// PlacementByIndex resolves a PlacementIndex result after restore; -1 and
// out-of-range indices yield nil.
func (c *CodeCache) PlacementByIndex(i int) *Placement {
	if i < 0 || i >= len(c.placements) {
		return nil
	}
	return &c.placements[i]
}
