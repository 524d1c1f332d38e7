package trident

import (
	"fmt"

	"tridentsp/internal/checkpoint"
	"tridentsp/internal/isa"
	"tridentsp/internal/trace"
)

// Checkpoint serialization (DESIGN §12) for the Trident hardware: branch
// profiler, watch table, value profile table, event queue, helper-thread
// scheduler, and the code cache. Each restores into an object freshly built
// from the same configuration.

// SaveState serializes the branch profiler.
func (p *Profiler) SaveState(e *checkpoint.Encoder) {
	e.Mark("trident.profiler")
	e.Len(len(p.sets))
	for _, set := range p.sets {
		e.Len(len(set))
		for _, en := range set {
			e.U64(en.target)
			e.U8(en.counter)
			e.Bool(en.formed)
			e.Bool(en.valid)
		}
	}
	e.Bool(p.cap != nil)
	if p.cap != nil {
		e.U64(p.cap.startPC)
		e.Len(len(p.cap.bits))
		for _, b := range p.cap.bits {
			e.Bool(b)
		}
	}
	e.U64(p.Captures)
	e.U64(p.Events)
}

// LoadState restores state saved by SaveState.
func (p *Profiler) LoadState(d *checkpoint.Decoder) error {
	d.Expect("trident.profiler")
	n := d.Len()
	if d.Err() != nil {
		return d.Err()
	}
	if n != len(p.sets) {
		return fmt.Errorf("%w: profiler has %d sets, checkpoint %d",
			checkpoint.ErrCorrupt, len(p.sets), n)
	}
	for i := range p.sets {
		k := d.Len()
		if d.Err() != nil {
			return d.Err()
		}
		set := p.sets[i][:0]
		for j := 0; j < k; j++ {
			set = append(set, profEntry{
				target:  d.U64(),
				counter: d.U8(),
				formed:  d.Bool(),
				valid:   d.Bool(),
			})
		}
		p.sets[i] = set
	}
	p.cap = nil
	if d.Bool() {
		c := &capture{startPC: d.U64()}
		for k := d.Len(); k > 0; k-- {
			c.bits = append(c.bits, d.Bool())
		}
		p.cap = c
	}
	p.Captures = d.U64()
	p.Events = d.U64()
	return d.Err()
}

// SaveState serializes the watch table in insertion order, which both maps
// are rebuilt from.
func (t *WatchTable) SaveState(e *checkpoint.Encoder) {
	e.Mark("trident.watch")
	e.Len(len(t.order))
	for _, pc := range t.order {
		w := t.byStart[pc]
		e.U64(w.StartPC)
		e.Int(w.TraceID)
		e.Int(w.Length)
		e.I64(w.MinExecTime)
		e.I64(w.TotalExecTime)
		e.U64(w.Traversals)
		e.Bool(w.OptFlag)
	}
}

// LoadState restores state saved by SaveState.
func (t *WatchTable) LoadState(d *checkpoint.Decoder) error {
	d.Expect("trident.watch")
	n := d.Len()
	if d.Err() != nil {
		return d.Err()
	}
	t.byStart = make(map[uint64]*WatchEntry, n)
	t.byID = make(map[int]*WatchEntry, n)
	t.order = t.order[:0]
	for i := 0; i < n; i++ {
		w := &WatchEntry{
			StartPC:       d.U64(),
			TraceID:       d.Int(),
			Length:        d.Int(),
			MinExecTime:   d.I64(),
			TotalExecTime: d.I64(),
			Traversals:    d.U64(),
			OptFlag:       d.Bool(),
		}
		if d.Err() != nil {
			return d.Err()
		}
		t.byStart[w.StartPC] = w
		t.byID[w.TraceID] = w
		t.order = append(t.order, w.StartPC)
	}
	return d.Err()
}

// SaveState serializes the value profile table.
func (v *VPT) SaveState(e *checkpoint.Encoder) {
	e.Mark("trident.vpt")
	e.Len(len(v.sets))
	for _, set := range v.sets {
		e.Len(len(set))
		for _, en := range set {
			e.U64(en.PC)
			e.U64(en.LastValue)
			e.U8(en.Confidence)
			e.U32(en.Hits)
			e.Bool(en.Specialized)
			e.Bool(en.valid)
		}
	}
	e.U64(v.Events)
}

// LoadState restores state saved by SaveState.
func (v *VPT) LoadState(d *checkpoint.Decoder) error {
	d.Expect("trident.vpt")
	n := d.Len()
	if d.Err() != nil {
		return d.Err()
	}
	if n != len(v.sets) {
		return fmt.Errorf("%w: VPT has %d sets, checkpoint %d", checkpoint.ErrCorrupt, len(v.sets), n)
	}
	for i := range v.sets {
		k := d.Len()
		if d.Err() != nil {
			return d.Err()
		}
		set := v.sets[i][:0]
		for j := 0; j < k; j++ {
			set = append(set, VPTEntry{
				PC:          d.U64(),
				LastValue:   d.U64(),
				Confidence:  d.U8(),
				Hits:        d.U32(),
				Specialized: d.Bool(),
				valid:       d.Bool(),
			})
		}
		v.sets[i] = set
	}
	v.Events = d.U64()
	return d.Err()
}

// SaveState serializes the event queue.
func (q *Queue) SaveState(e *checkpoint.Encoder) {
	e.Mark("trident.queue")
	e.Len(len(q.events))
	for i := range q.events {
		ev := &q.events[i]
		e.U8(uint8(ev.Kind))
		e.I64(ev.Raised)
		e.U64(ev.Hot.StartPC)
		e.Len(len(ev.Hot.Bitmap))
		for _, b := range ev.Hot.Bitmap {
			e.Bool(b)
		}
		e.U64(ev.LoadPC)
		e.Int(ev.TraceID)
	}
	e.U64(q.Raised)
	e.U64(q.Dropped)
}

// LoadState restores state saved by SaveState.
func (q *Queue) LoadState(d *checkpoint.Decoder) error {
	d.Expect("trident.queue")
	n := d.Len()
	if d.Err() != nil {
		return d.Err()
	}
	q.events = q.events[:0]
	for i := 0; i < n; i++ {
		ev := Event{Kind: EventKind(d.U8()), Raised: d.I64()}
		ev.Hot.StartPC = d.U64()
		for k := d.Len(); k > 0; k-- {
			ev.Hot.Bitmap = append(ev.Hot.Bitmap, d.Bool())
		}
		ev.LoadPC = d.U64()
		ev.TraceID = d.Int()
		if d.Err() != nil {
			return d.Err()
		}
		q.events = append(q.events, ev)
	}
	q.Raised = d.U64()
	q.Dropped = d.U64()
	return d.Err()
}

// SaveState serializes the helper-thread scheduler.
func (h *Helper) SaveState(e *checkpoint.Encoder) {
	e.Mark("trident.helper")
	e.I64(h.busyUntil)
	e.U64(h.Invocations)
	e.I64(h.ActiveCycles)
	e.U64(h.Preemptions)
}

// LoadState restores state saved by SaveState.
func (h *Helper) LoadState(d *checkpoint.Decoder) error {
	d.Expect("trident.helper")
	h.busyUntil = d.I64()
	h.Invocations = d.U64()
	h.ActiveCycles = d.I64()
	h.Preemptions = d.U64()
	return d.Err()
}

// SaveState serializes the code cache: the placed words and weights (the
// binary truth — the decoded instruction mirror is rebuilt from the words),
// plus every placement with its trace body.
func (c *CodeCache) SaveState(e *checkpoint.Encoder) {
	e.Mark("trident.codecache")
	e.U64(c.base)
	e.Len(len(c.words))
	for _, w := range c.words {
		e.U64(w)
	}
	e.Len(len(c.weights))
	for _, w := range c.weights {
		e.Int(w)
	}
	e.Int(c.nextID)
	e.Len(len(c.placements))
	for i := range c.placements {
		pl := &c.placements[i]
		e.Int(pl.TraceID)
		e.U64(pl.Start)
		e.U64(pl.End)
		e.Bool(pl.Live)
		trace.SaveTrace(e, pl.Trace)
	}
}

// LoadState restores state saved by SaveState. The decoded instruction
// mirror is regenerated from the words, and the block cache re-anchored to
// the rebuilt slices.
func (c *CodeCache) LoadState(d *checkpoint.Decoder) error {
	d.Expect("trident.codecache")
	base := d.U64()
	if d.Err() != nil {
		return d.Err()
	}
	if base != c.base {
		return fmt.Errorf("%w: code cache base %#x, expected %#x", checkpoint.ErrCorrupt, base, c.base)
	}
	n := d.Len()
	if d.Err() != nil {
		return d.Err()
	}
	c.words = make([]uint64, n)
	c.insts = make([]isa.Inst, n)
	for i := range c.words {
		c.words[i] = d.U64()
		c.insts[i] = isa.Decode(c.words[i])
	}
	k := d.Len()
	if d.Err() != nil {
		return d.Err()
	}
	if k != n {
		return fmt.Errorf("%w: code cache has %d weights for %d words", checkpoint.ErrCorrupt, k, n)
	}
	c.weights = make([]int, k)
	for i := range c.weights {
		c.weights[i] = d.Int()
	}
	c.nextID = d.Int()
	m := d.Len()
	if d.Err() != nil {
		return d.Err()
	}
	c.placements = make([]Placement, 0, m)
	for i := 0; i < m; i++ {
		pl := Placement{TraceID: d.Int(), Start: d.U64(), End: d.U64(), Live: d.Bool()}
		tr, err := trace.LoadTrace(d)
		if err != nil {
			return err
		}
		pl.Trace = tr
		c.placements = append(c.placements, pl)
	}
	c.blocks.SetSource(c.insts, c.weights)
	// SetSource carries compiled chains across by value (for append-style
	// regrowth); a restore is not regrowth. Drop them, as ProgramSpace's
	// LoadState does, so a machine restored after running another window
	// continues exactly as a fresh machine restored from the same bytes.
	c.blocks.DropCompiled()
	return d.Err()
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
