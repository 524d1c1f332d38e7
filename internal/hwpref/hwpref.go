// Package hwpref is the pluggable hardware-prefetch arsenal (DESIGN §16):
// the classic backend taxonomy — next-line, per-PC stride, best-offset, and
// GHB-style delta correlation — behind one engine that owns the prefetch
// line buffer and the memory system's fill port, plus an online policy
// selector that probes every backend in epoch windows and exploits the
// winner, POWER7-style runtime reconfiguration.
//
// The selector implements memsys.Prefetcher exactly like the stream buffers
// do: Lookup supplies demand misses from the buffer, Contains squashes
// redundant software prefetches, Train observes every committed load. A
// single-backend selector never switches — the static configurations the
// figures compare against are the same machine with a one-entry arsenal.
//
// Determinism contract: every decision (backend proposals, buffer
// replacement, epoch boundaries, switch points) is a pure function of the
// committed load stream and the architectural memory state, never of the
// execution engine. Train(…, l1Miss=false) advances the epoch clock and
// hands the load only to the backends that learn from hits, through a
// method that cannot propose, so it performs no fill-port call and no
// buffer mutation by construction (the memsys.LoadFast guarantee). Reports
// stay byte-identical across the fast path, -slowpath, the JIT tier, any
// -j/-sample-jobs, and kill/resume.
package hwpref

import "tridentsp/internal/checkpoint"

// FillPort starts line fetches on behalf of the active backend; implemented
// by memsys.Hierarchy.StartFill.
type FillPort interface {
	StartFill(lineAddr uint64, now int64) (ready int64, ok bool)
}

// Config sizes the arsenal's shared engine and each backend's tables.
type Config struct {
	// LineSize must match the cache hierarchy's.
	LineSize int
	// Degree is how many lines a backend may propose per trigger (the
	// best-offset backend always proposes one; see backends.go).
	Degree int
	// BufferLines is the shared prefetch-buffer capacity. There is one
	// physical buffer however many backends feed it — a policy switch keeps
	// the buffered lines — and the oldest line is evicted when a fill
	// overflows it, debited to the backend that issued it.
	BufferLines int

	// StrideEntries sizes the per-PC stride table (power of two).
	StrideEntries int
	// StrideConfidence is the stride-match count required before a miss
	// may trigger prefetches.
	StrideConfidence uint8

	// BOTableEntries sizes the best-offset recent-request table (power of
	// two). BOScoreMax ends a learning phase early when an offset reaches
	// it; BORoundMax bounds a phase's full test rounds; BOBadScore is the
	// minimum winning score that keeps prefetching on.
	BOTableEntries int
	BOScoreMax     int
	BORoundMax     int
	BOBadScore     int

	// GHBEntries sizes the global miss-delta history ring; GHBIndexEntries
	// sizes the delta-pair correlation table (power of two).
	GHBEntries      int
	GHBIndexEntries int
}

// DefaultConfig returns the arsenal sizing used by the figures: tables in
// the same budget class as the paper's 8x8 stream buffers (64 buffered
// lines, 1K-entry stride history).
func DefaultConfig() Config {
	return Config{
		LineSize:         64,
		Degree:           4,
		BufferLines:      64,
		StrideEntries:    1024,
		StrideConfidence: 2,
		BOTableEntries:   64,
		BOScoreMax:       31,
		BORoundMax:       24,
		BOBadScore:       2,
		GHBEntries:       256,
		GHBIndexEntries:  256,
	}
}

// Backend is one prefetch predictor. Backends only propose line addresses;
// the selector owns dedup, the fill port, the shared buffer, and all
// statistics, so a backend never touches timing state directly.
type Backend interface {
	// Name labels the backend in metrics, decisions, and reports.
	Name() string
	// Observe sees one committed load that missed L1, trains on it, and
	// appends proposed prefetch line addresses to dst. Loads that hit L1
	// reach only backends that implement hitLearner.
	Observe(dst []uint64, pc, addr, lineAddr uint64) []uint64
	// OnSupply sees a useful prefetch: a demand miss consumed lineAddr
	// from the buffer. Backends that run ahead (next-line, best-offset)
	// append follow-on proposals.
	OnSupply(dst []uint64, lineAddr uint64) []uint64
	// checkpoint walks the predictor tables (state.go pattern).
	checkpoint(c *checkpoint.Codec)
}

// hitLearner is the one extra method of a backend whose tables also learn
// from L1 hits. It returns nothing, so a hit can never propose a line: the
// selector hands hits to these backends alone and everything else skips
// them (the memsys.LoadFast contract holds by construction).
type hitLearner interface {
	observeHit(pc, addr uint64)
}

// bufLine is one prefetched line in the shared buffer, tagged with the
// backend that issued it so supplies and evictions are attributed to the
// right policy.
type bufLine struct {
	line  uint64
	ready int64
	by    int
}

// EngineStats counts one backend's activity against the shared buffer.
// Supplies is the accuracy/coverage credit, EvictedUnused and FillsDenied
// the pollution/waste debit; all are attributed to the issuing backend.
type EngineStats struct {
	Fills         uint64 // lines this backend fetched into the buffer
	FillsDenied   uint64 // fills refused by the port (line already cached)
	Supplies      uint64 // demand misses served from its buffered lines
	EvictedUnused uint64 // its buffered lines displaced before first use
}

// engine couples a backend to its attribution counters.
type engine struct {
	backend Backend
	stats   EngineStats
}

// issue starts fills for backend i's proposed lines: dedup against the
// shared buffer, StartFill through the port, FIFO-evict on overflow.
func (s *Selector) issue(i int, cands []uint64, now int64) {
	en := s.engines[i]
	b := &s.buf
	for _, line := range cands {
		if b.find(line) != nilSlot {
			continue
		}
		ready, ok := s.port.StartFill(line, now)
		if !ok {
			en.stats.FillsDenied++
			continue
		}
		if b.free == nilSlot { // full: evict the oldest line
			old := b.oldest()
			s.engines[b.slots[old].by].stats.EvictedUnused++
			b.remove(old)
		}
		b.push(bufLine{line: line, ready: ready, by: i})
		en.stats.Fills++
	}
}

// take consumes the buffered line, returning its ready cycle and crediting
// the supply to the issuing backend. Unlike a stream buffer the lines are
// unordered across predictions, so only the matched entry is removed.
func (s *Selector) take(line uint64) (int64, bool) {
	i := s.buf.find(line)
	if i == nilSlot {
		return 0, false
	}
	bl := s.buf.slots[i].bufLine
	s.engines[bl.by].stats.Supplies++
	s.buf.remove(i)
	return bl.ready, true
}

// lineBuf is the shared prefetch buffer: a fixed pool of slots threaded
// oldest to newest as a circular doubly linked FIFO, plus an exact
// line→slot index whose hash chains run through the slots. Everything is
// allocated once in newLineBuf, so a lookup, a take and an eviction are
// O(1) and none of them moves a line or allocates. The FIFO order is the
// eviction order and the checkpoint order.
type lineBuf struct {
	slots  []bufSlot // the line slots, then the FIFO's sentinel
	bucket []int32   // hash bucket → first slot of its chain
	shift  uint      // 64 − log2(len(bucket)): bucketOf keeps the top bits
	free   int32     // first free slot; free slots chain through newer
}

// bufSlot is one pool entry and its links.
type bufSlot struct {
	bufLine
	older, newer int32 // FIFO neighbours (the sentinel closes the circle)
	chain        int32 // next slot in the same hash bucket
}

// nilSlot ends a hash chain and the free list.
const nilSlot = -1

// newLineBuf allocates a buffer for capacity lines with at least two hash
// buckets per line, so chains stay about one entry long.
func newLineBuf(capacity int) lineBuf {
	bits := uint(1)
	for 1<<bits < 2*capacity {
		bits++
	}
	b := lineBuf{
		slots:  make([]bufSlot, capacity+1),
		bucket: make([]int32, 1<<bits),
		shift:  64 - bits,
	}
	b.reset()
	return b
}

// reset empties the buffer, keeping its storage.
func (b *lineBuf) reset() {
	for i := range b.bucket {
		b.bucket[i] = nilSlot
	}
	for i := range b.slots {
		b.slots[i].newer = int32(i + 1)
	}
	sent := b.sentinel()
	b.slots[sent-1].newer = nilSlot
	b.slots[sent].older, b.slots[sent].newer = sent, sent
	b.free = 0
}

func (b *lineBuf) sentinel() int32 { return int32(len(b.slots) - 1) }

// oldest returns the oldest live slot (the sentinel when empty).
func (b *lineBuf) oldest() int32 { return b.slots[b.sentinel()].newer }

// bucketOf hashes a line address (Fibonacci hashing: sequential lines
// spread across the buckets).
func (b *lineBuf) bucketOf(line uint64) int {
	return int((line * 0x9e3779b97f4a7c15) >> b.shift)
}

// find returns the slot holding line, or nilSlot.
func (b *lineBuf) find(line uint64) int32 {
	i := b.bucket[b.bucketOf(line)]
	for i != nilSlot && b.slots[i].line != line {
		i = b.slots[i].chain
	}
	return i
}

// push appends bl as the newest line. The buffer must not be full and must
// not hold bl.line already.
func (b *lineBuf) push(bl bufLine) {
	i, sent := b.free, b.sentinel()
	sl := &b.slots[i]
	b.free = sl.newer
	h := b.bucketOf(bl.line)
	newest := b.slots[sent].older
	*sl = bufSlot{bufLine: bl, older: newest, newer: sent, chain: b.bucket[h]}
	b.bucket[h] = i
	b.slots[newest].newer = i
	b.slots[sent].older = i
}

// remove unlinks live slot i from the FIFO and from its hash chain and
// frees it.
func (b *lineBuf) remove(i int32) {
	sl := &b.slots[i]
	b.slots[sl.older].newer = sl.newer
	b.slots[sl.newer].older = sl.older
	p := &b.bucket[b.bucketOf(sl.line)]
	for *p != i {
		p = &b.slots[*p].chain
	}
	*p = sl.chain
	sl.newer = b.free
	b.free = i
}

// lines returns the buffered lines, oldest first.
func (b *lineBuf) lines() []bufLine {
	var out []bufLine
	for i := b.oldest(); i != b.sentinel(); i = b.slots[i].newer {
		out = append(out, b.slots[i].bufLine)
	}
	return out
}
