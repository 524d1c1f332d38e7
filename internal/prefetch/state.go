package prefetch

import (
	"maps"

	"tridentsp/internal/checkpoint"
	"tridentsp/internal/isa"
	"tridentsp/internal/trace"
)

// Checkpoint serialization (DESIGN §12) for the optimizer's per-trace
// memory: the version bases, distance-controller state, placed prefetch
// locations, counters, and the pending insert or repair. Maps are written
// in sorted key order so identical optimizers serialize to identical bytes;
// byLoad is stored as group indices into the groups slice and relinked on
// load. The distance histogram pointer is registry-owned and survives
// restore untouched (the registry restores values through get-or-create,
// keeping cached pointers valid).

// Checkpoint walks the optimizer.
func (o *Optimizer) Checkpoint(c *checkpoint.Codec) {
	c.Mark("prefetch.opt")
	checkpoint.Map(c, &o.traces, func(c *checkpoint.Codec, pc *uint64, p **traceState) {
		if *p == nil {
			*p = new(traceState)
		}
		walkTraceState(c, *p)
		*pc = (*p).startPC
	})
	c.U64(&o.Stats.Insertions)
	c.U64(&o.Stats.Repairs)
	c.U64(&o.Stats.Matured)
	c.U64(&o.Stats.PrefetchesPlaced)
	c.U64(&o.Stats.DerefChainsPlaced)
	o.walkPending(c)
}

// walkPending walks the pending insert or repair. It always belongs to a
// tracked trace (ForgetTrace cancels it), so it travels as its trace's head
// and loading relinks it; an untracked head is corrupt.
func (o *Optimizer) walkPending(c *checkpoint.Codec) {
	p := &o.pending
	have, insert := p.ts != nil, p.tr != nil
	if c.Bool(&have); !have {
		*p = pendingOp{}
		return
	}
	var head uint64
	if p.ts != nil {
		head = p.ts.startPC
	}
	if c.U64(&head); c.Loading() {
		p.ts = o.traces[head]
	}
	if p.ts == nil {
		c.Failf("pending prefetch change for untracked trace %#x", head)
		*p = pendingOp{}
		return
	}
	if c.Bool(&insert); insert {
		trace.Checkpoint(c, &p.tr)
	} else {
		p.tr = nil
	}
	checkpoint.Slice(c, &p.locs, func(c *checkpoint.Codec, g *[]locRef) {
		checkpoint.Slice(c, g, func(c *checkpoint.Codec, l *locRef) {
			c.Int(&l.idx)
			c.I64(&l.off)
		})
	})
	c.Int(&p.derefs)
	c.Int(&p.group)
	if n := len(p.ts.groups); insert && len(p.locs) != n || !insert && (p.group < 0 || p.group >= n) {
		c.Failf("pending prefetch change (insert %v, group %d) misfits trace %#x's %d groups", insert, p.group, p.ts.startPC, n)
	}
}

// walkTraceState walks one trace's optimizer memory.
func walkTraceState(c *checkpoint.Codec, ts *traceState) {
	c.U64(&ts.startPC)
	trace.Checkpoint(c, &ts.base)
	c.Int(&ts.curID)
	checkpoint.Slice(c, &ts.groups, func(c *checkpoint.Codec, g **groupState) {
		if *g == nil {
			*g = new(groupState)
		}
		walkGroupState(c, *g)
	})
	checkpoint.Map(c, &ts.byLoad, func(c *checkpoint.Codec, lpc *uint64, g **groupState) {
		c.U64(lpc)
		gi := groupIndex(ts.groups, *g)
		c.Int(&gi)
		*g = nil
		if gi >= 0 && gi < len(ts.groups) {
			*g = ts.groups[gi]
		}
	})
	if c.Loading() {
		// A load whose group index resolves to no group is dropped.
		maps.DeleteFunc(ts.byLoad, func(_ uint64, g *groupState) bool { return g == nil })
	}
	checkpoint.Map(c, &ts.potential, func(c *checkpoint.Codec, ppc *uint64, v *bool) {
		c.U64(ppc)
		*v = true
	})
}

func groupIndex(groups []*groupState, g *groupState) int {
	for i := range groups {
		if groups[i] == g {
			return i
		}
	}
	return -1
}

func walkGroupState(c *checkpoint.Codec, g *groupState) {
	walkGroup(c, &g.Group)
	c.I64(&g.distance)
	c.I64(&g.maxDist)
	c.I64(&g.repairsUsed)
	c.I64(&g.lastAvgLat)
	c.Bool(&g.hasLast)
	c.Bool(&g.mature)
	c.I64(&g.patchStride)
	checkpoint.Slice(c, &g.prefetches, func(c *checkpoint.Codec, l *prefetchLoc) {
		c.U64(&l.pc)
		c.I64(&l.off)
	})
	checkpoint.Slice(c, &g.derefMembers, walkMember)
}

func walkGroup(c *checkpoint.Codec, g *Group) {
	isa.CheckpointReg(c, &g.BaseReg)
	c.Int(&g.Gen)
	checkpoint.Slice(c, &g.Members, walkMember)
	c.Bool(&g.StrideOK)
	c.I64(&g.Stride)
	c.Bool(&g.PointerBase)
	c.Bool(&g.ProducerOK)
	isa.CheckpointReg(c, &g.ProducerBase)
	c.I64(&g.ProducerOff)
	c.Int(&g.ProducerIdx)
	c.I64(&g.ProducerStride)
	isa.CheckpointReg(c, &g.ProducerAddend)
}

func walkMember(c *checkpoint.Codec, m *Member) {
	c.U64(&m.OrigPC)
	c.I64(&m.Offset)
	c.Int(&m.Index)
	checkpoint.Enum(c, &m.Class)
	c.I64(&m.Stride)
}
