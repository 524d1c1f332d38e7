package hwpref

import (
	"fmt"

	"tridentsp/internal/checkpoint"
)

// The arsenal (DESIGN §16). Every backend is a pure predictor over the
// committed load stream: Observe trains on an L1 miss and proposes line
// addresses, observeHit (stride alone implements it) trains on a hit, and
// OnSupply extends a proven prediction. Backends never see the clock, the
// fill port, or the buffer — the engine owns those — so each one is
// exercised standalone by the conformance suite.

// Arsenal returns every backend in canonical order (the order the selector
// probes and the order checkpoints serialize).
func Arsenal(cfg Config) []Backend {
	return []Backend{
		NewNextLine(cfg),
		NewStride(cfg),
		NewBestOffset(cfg),
		NewGHB(cfg),
	}
}

// lineShift returns log2 of a power-of-two line size, the shift that turns a
// byte address into a line address; any other size panics.
func lineShift(lineSize int) uint {
	sh := uint(0)
	for 1<<sh < lineSize {
		sh++
	}
	if 1<<sh != lineSize {
		panic(fmt.Sprintf("hwpref: line size %d not a power of two", lineSize))
	}
	return sh
}

// --- next-line ---

// nextLine is sequential prefetch: a miss on line L proposes L+1..L+degree,
// and a supply keeps the run going past the consumed line.
type nextLine struct {
	degree int
}

// NewNextLine builds the sequential backend.
func NewNextLine(cfg Config) Backend { return &nextLine{degree: cfg.Degree} }

func (n *nextLine) Name() string { return "next-line" }

func (n *nextLine) Observe(dst []uint64, pc, addr, lineAddr uint64) []uint64 {
	for k := 1; k <= n.degree; k++ {
		dst = append(dst, lineAddr+uint64(k))
	}
	return dst
}

func (n *nextLine) OnSupply(dst []uint64, lineAddr uint64) []uint64 {
	for k := 1; k <= n.degree; k++ {
		dst = append(dst, lineAddr+uint64(k))
	}
	return dst
}

func (n *nextLine) checkpoint(c *checkpoint.Codec) { c.Mark("hwpref.nextline") }

// --- per-PC stride ---

// strideEntry is one PC's stride predictor state (the same scheme the
// stream buffers' history table uses).
type strideEntry struct {
	pc       uint64
	lastAddr uint64
	stride   int64
	conf     uint8
	valid    bool
}

// stride is classic per-PC stride prefetch: a PC whose consecutive accesses
// keep a stable non-zero stride proposes the next degree strided lines when
// it misses. It is the arsenal's hit learner: every access, hit or miss,
// trains the PC's entry.
type stride struct {
	table     []strideEntry
	threshold uint8
	degree    int
	shift     uint
}

// NewStride builds the per-PC stride backend.
func NewStride(cfg Config) Backend {
	n := 1
	for n*2 <= cfg.StrideEntries {
		n *= 2
	}
	return &stride{
		table:     make([]strideEntry, n),
		threshold: cfg.StrideConfidence,
		degree:    cfg.Degree,
		shift:     lineShift(cfg.LineSize),
	}
}

func (s *stride) Name() string { return "stride" }

// learn trains pc's entry on one access and returns it, or nil when the
// access claimed the entry for pc afresh.
func (s *stride) learn(pc, addr uint64) *strideEntry {
	e := &s.table[(pc>>3)&uint64(len(s.table)-1)]
	if !e.valid || e.pc != pc {
		*e = strideEntry{pc: pc, lastAddr: addr, valid: true}
		return nil
	}
	str := int64(addr) - int64(e.lastAddr)
	e.lastAddr = addr
	if str == e.stride && str != 0 {
		if e.conf < 3 {
			e.conf++
		}
	} else {
		e.stride = str
		if e.conf > 0 {
			e.conf--
		}
	}
	return e
}

func (s *stride) observeHit(pc, addr uint64) { s.learn(pc, addr) }

func (s *stride) Observe(dst []uint64, pc, addr, lineAddr uint64) []uint64 {
	e := s.learn(pc, addr)
	if e == nil || e.conf < s.threshold || e.stride == 0 {
		return dst
	}
	prev := lineAddr
	a := int64(addr)
	for k := 1; k <= s.degree; k++ {
		a += e.stride
		if line := uint64(a) >> s.shift; line != prev {
			dst = append(dst, line)
			prev = line
		}
	}
	return dst
}

func (s *stride) OnSupply(dst []uint64, lineAddr uint64) []uint64 { return dst }

func (s *stride) checkpoint(c *checkpoint.Codec) {
	c.Mark("hwpref.stride")
	if !c.Count(len(s.table), "stride-table entries") {
		return
	}
	for i := range s.table {
		t := &s.table[i]
		c.U64(&t.pc)
		c.U64(&t.lastAddr)
		c.I64(&t.stride)
		c.U8(&t.conf)
		c.Bool(&t.valid)
	}
}

// --- best-offset ---

// boOffsets are the candidate line offsets a learning phase scores
// (Michaud's BOP uses a larger list; this subset keeps phases short while
// covering the unit strides and the small composite jumps these kernels
// show).
var boOffsets = [...]int64{1, 2, 3, 4, 6, 8, 12, 16}

// bestOffset is best-offset prefetch: trigger accesses (misses and supplied
// prefetches) test one candidate offset each against a recent-request table
// — "was the line one offset back requested recently?" — and the phase's
// best-scoring offset becomes the prefetch offset for the next phase.
type bestOffset struct {
	scores  [len(boOffsets)]int32
	testIdx int
	round   int
	// best is the active offset; on gates prefetching (a phase whose
	// winner scored below BOBadScore turns the backend off until the next
	// phase completes).
	best     int64
	on       bool
	rr       []uint64 // recent-request lines, direct-mapped
	rrValid  []bool
	scoreMax int
	roundMax int
	badScore int
}

// NewBestOffset builds the best-offset backend.
func NewBestOffset(cfg Config) Backend {
	n := 1
	for n*2 <= cfg.BOTableEntries {
		n *= 2
	}
	return &bestOffset{
		best:     1,
		on:       true,
		rr:       make([]uint64, n),
		rrValid:  make([]bool, n),
		scoreMax: cfg.BOScoreMax,
		roundMax: cfg.BORoundMax,
		badScore: cfg.BOBadScore,
	}
}

func (b *bestOffset) Name() string { return "best-offset" }

func (b *bestOffset) rrIndex(line uint64) int { return int(line & uint64(len(b.rr)-1)) }

func (b *bestOffset) rrContains(line uint64) bool {
	i := b.rrIndex(line)
	return b.rrValid[i] && b.rr[i] == line
}

func (b *bestOffset) rrInsert(line uint64) {
	i := b.rrIndex(line)
	b.rr[i] = line
	b.rrValid[i] = true
}

// trigger runs one learning step and proposes the current best offset.
func (b *bestOffset) trigger(dst []uint64, lineAddr uint64) []uint64 {
	cand := boOffsets[b.testIdx]
	if b.rrContains(lineAddr - uint64(cand)) {
		b.scores[b.testIdx]++
	}
	phaseEnd := int(b.scores[b.testIdx]) >= b.scoreMax
	b.testIdx++
	if b.testIdx == len(boOffsets) {
		b.testIdx = 0
		b.round++
		phaseEnd = phaseEnd || b.round >= b.roundMax
	}
	if phaseEnd {
		win := 0
		for i := 1; i < len(b.scores); i++ {
			if b.scores[i] > b.scores[win] {
				win = i
			}
		}
		b.best = boOffsets[win]
		b.on = int(b.scores[win]) >= b.badScore
		b.scores = [len(boOffsets)]int32{}
		b.testIdx = 0
		b.round = 0
	}
	if b.on {
		dst = append(dst, lineAddr+uint64(b.best))
	}
	b.rrInsert(lineAddr)
	return dst
}

func (b *bestOffset) Observe(dst []uint64, pc, addr, lineAddr uint64) []uint64 {
	return b.trigger(dst, lineAddr)
}

func (b *bestOffset) OnSupply(dst []uint64, lineAddr uint64) []uint64 {
	return b.trigger(dst, lineAddr)
}

func (b *bestOffset) checkpoint(c *checkpoint.Codec) {
	c.Mark("hwpref.bestoffset")
	for i := range b.scores {
		v := int64(b.scores[i])
		c.I64(&v)
		b.scores[i] = int32(v)
	}
	c.Int(&b.testIdx)
	c.Int(&b.round)
	c.I64(&b.best)
	c.Bool(&b.on)
	if !c.Count(len(b.rr), "best-offset table entries") {
		return
	}
	for i := range b.rr {
		c.U64(&b.rr[i])
		c.Bool(&b.rrValid[i])
	}
	if c.Err() == nil && (b.testIdx < 0 || b.testIdx >= len(boOffsets)) {
		c.Failf("best-offset test index %d", b.testIdx)
	}
}

// --- GHB delta correlation ---

// ghb is global delta-correlation (Markov) prefetch in the GHB style: a
// ring of recent miss-line deltas plus a correlation table keyed by the
// last delta pair. When the current pair matched somewhere in history, the
// deltas that followed that occurrence are replayed from the current line.
type ghb struct {
	deltas []int64 // history ring of miss-line deltas
	head   int     // next write position
	idx    []ghbIdxEntry

	lastLine  uint64
	lastValid bool
	prevDelta int64
	prevValid bool
	degree    int
}

// ghbIdxEntry remembers where a delta pair last ended in the ring.
type ghbIdxEntry struct {
	d1, d2 int64
	pos    int
	valid  bool
}

// NewGHB builds the delta-correlation backend.
func NewGHB(cfg Config) Backend {
	n := 1
	for n*2 <= cfg.GHBIndexEntries {
		n *= 2
	}
	return &ghb{
		deltas: make([]int64, cfg.GHBEntries),
		idx:    make([]ghbIdxEntry, n),
		degree: cfg.Degree,
	}
}

func (g *ghb) Name() string { return "ghb" }

func (g *ghb) hash(d1, d2 int64) int {
	h := uint64(d1)*0x9e3779b97f4a7c15 ^ uint64(d2)*0xbf58476d1ce4e5b9
	return int(h & uint64(len(g.idx)-1))
}

func (g *ghb) Observe(dst []uint64, pc, addr, lineAddr uint64) []uint64 {
	if !g.lastValid {
		g.lastLine, g.lastValid = lineAddr, true
		return dst
	}
	d := int64(lineAddr) - int64(g.lastLine)
	g.lastLine = lineAddr
	if g.prevValid {
		e := &g.idx[g.hash(g.prevDelta, d)]
		if e.valid && e.d1 == g.prevDelta && e.d2 == d {
			// Replay the deltas that followed the previous occurrence.
			// Zero entries are unwritten (or the pathological repeated
			// line) and end the walk.
			cur := int64(lineAddr)
			for k := 1; k <= g.degree; k++ {
				nd := g.deltas[(e.pos+k)%len(g.deltas)]
				if nd == 0 {
					break
				}
				cur += nd
				dst = append(dst, uint64(cur))
			}
		}
		e.d1, e.d2, e.pos, e.valid = g.prevDelta, d, g.head, true
	}
	g.deltas[g.head] = d
	g.head = (g.head + 1) % len(g.deltas)
	g.prevDelta, g.prevValid = d, true
	return dst
}

func (g *ghb) OnSupply(dst []uint64, lineAddr uint64) []uint64 { return dst }

func (g *ghb) checkpoint(c *checkpoint.Codec) {
	c.Mark("hwpref.ghb")
	if !c.Count(len(g.deltas), "GHB history entries") {
		return
	}
	checkpoint.Words(c, g.deltas)
	c.Int(&g.head)
	if !c.Count(len(g.idx), "GHB index entries") {
		return
	}
	for i := range g.idx {
		ie := &g.idx[i]
		c.I64(&ie.d1)
		c.I64(&ie.d2)
		c.Int(&ie.pos)
		c.Bool(&ie.valid)
		if c.Err() == nil && (ie.pos < 0 || ie.pos >= len(g.deltas)) {
			c.Failf("ghb index entry %d points at history slot %d of %d", i, ie.pos, len(g.deltas))
		}
	}
	c.U64(&g.lastLine)
	c.Bool(&g.lastValid)
	c.I64(&g.prevDelta)
	c.Bool(&g.prevValid)
	if c.Err() == nil && (g.head < 0 || g.head >= len(g.deltas)) {
		c.Failf("ghb head %d", g.head)
	}
}
