package telemetry

import (
	"slices"

	"tridentsp/internal/checkpoint"
)

// Checkpoint serialization (DESIGN §12). A restored tracer reproduces the
// original byte-for-byte in every export: ring contents, drop counts, the
// shared sequence counter, and every registry instrument. Instruments are
// restored through the get-or-create accessors so pointers handed out
// during wiring (the tracer's per-kind counters, the System's fast-path
// reason counters, the optimizer's distance histogram) keep addressing the
// live values.

// Checkpoint walks the tracer. Loading targets a tracer built with the same
// Options (ring capacities must match). The caller records tracer presence
// itself: a disabled (nil) tracer has no walk.
func (t *Tracer) Checkpoint(c *checkpoint.Codec) {
	c.Mark("telemetry")
	c.U64(&t.seq)
	t.sem.checkpoint(c)
	t.eng.checkpoint(c)
	t.reg.checkpoint(c)
}

// checkpoint walks the ring's event count and its retained events, oldest
// first, in place.
func (r *ring) checkpoint(c *checkpoint.Codec) {
	c.U64(&r.n)
	kept := min(r.n, uint64(len(r.buf)))
	if n := c.Len(int(kept)); c.Err() == nil && uint64(n) != kept {
		c.Failf("ring holds %d events for count %d (capacity %d)", n, r.n, len(r.buf))
	}
	if c.Err() != nil {
		return
	}
	for i := r.n - kept; i < r.n; i++ {
		ev := &r.buf[i&r.mask]
		c.U64(&ev.Seq)
		c.I64(&ev.Cycle)
		checkpoint.Enum(c, &ev.Kind)
		c.U64(&ev.PC)
		c.U64(&ev.Aux)
		c.I64(&ev.Arg)
		c.I64(&ev.Arg2)
	}
}

// checkpoint walks every instrument in name order. Loading walks into
// detached records and then applies each through the get-or-create
// accessors, after checking it against what the live registry holds.
func (r *Registry) checkpoint(c *checkpoint.Codec) {
	counters, gauges, hists := r.Counters(), r.Gauges(), r.Histograms()
	checkpoint.Slice(c, &counters, func(c *checkpoint.Codec, p **Counter) {
		if *p == nil {
			*p = new(Counter)
		}
		c.Str(&(*p).Name)
		c.U64(&(*p).V)
	})
	checkpoint.Slice(c, &gauges, func(c *checkpoint.Codec, p **Gauge) {
		if *p == nil {
			*p = new(Gauge)
		}
		c.Str(&(*p).Name)
		c.F64(&(*p).V)
	})
	checkpoint.Slice(c, &hists, func(c *checkpoint.Codec, p **Histogram) {
		if *p == nil {
			*p = new(Histogram)
		}
		h := *p
		c.Str(&h.Name)
		checkpoint.Slice(c, &h.Bounds, (*checkpoint.Codec).I64)
		if c.Loading() {
			h.Counts = make([]uint64, len(h.Bounds)+1)
		}
		checkpoint.Words(c, h.Counts)
		c.I64(&h.Sum)
		c.U64(&h.N)
	})
	if !c.Loading() {
		return
	}
	for _, x := range counters {
		if r.checkInstrument(c, x.Name, r.counters[x.Name] != nil) {
			r.Counter(x.Name).V = x.V
		}
	}
	for _, x := range gauges {
		if r.checkInstrument(c, x.Name, r.gauges[x.Name] != nil) {
			r.Gauge(x.Name).V = x.V
		}
	}
	for _, x := range hists {
		for i := 1; i < len(x.Bounds); i++ {
			if x.Bounds[i] <= x.Bounds[i-1] {
				c.Failf("histogram %q bounds not ascending", x.Name)
			}
		}
		if !r.checkInstrument(c, x.Name, r.hists[x.Name] != nil) {
			return
		}
		h := r.Histogram(x.Name, x.Bounds...)
		if !slices.Equal(h.Bounds, x.Bounds) {
			c.Failf("histogram %q has bounds %v, checkpoint %v", x.Name, h.Bounds, x.Bounds)
			return
		}
		copy(h.Counts, x.Counts)
		h.Sum, h.N = x.Sum, x.N
	}
}

// checkInstrument rejects a checkpointed name that the live registry holds
// as a different instrument type — the registry would panic on the
// get-or-create path, and a corrupt file must surface as an error instead.
// It reports whether the walk is still healthy.
func (r *Registry) checkInstrument(c *checkpoint.Codec, name string, sameKind bool) bool {
	if c.Err() != nil || sameKind {
		return c.Err() == nil
	}
	_, ctr := r.counters[name]
	_, g := r.gauges[name]
	_, h := r.hists[name]
	if ctr || g || h {
		c.Failf("instrument %q type mismatch", name)
	}
	return c.Err() == nil
}
