// Package streambuf implements the baseline hardware prefetcher: stride-
// predictor-guided stream buffers in the style of Sherwood et al.'s
// predictor-directed stream buffers, as configured in the paper's Table 1
// ("8 stream buffers; each buffer 8 entries. History table 1024 entries.
// Prefetching is guided by a stride predictor.").
//
// A PC-indexed stride history table watches every committed load. When a
// load misses in L1 and its PC has a confident non-zero stride, a stream
// buffer is allocated (replacing the least recently useful buffer) and runs
// ahead of the load, fetching successive lines through the memory system's
// fill port. Demand misses that match a buffered line are supplied from the
// buffer and the stream advances.
//
// Finding a line does not scan every entry of every buffer. A holder index
// keeps one mask per hash slot: bit i is set exactly while buffer i holds
// some entry whose line hashes to that slot. Lookup, Contains and the
// allocation dedup test visit only the buffers named in the line's mask, in
// ascending order, which is the scan's first-buffer-wins order, so every
// supply is the one the scan would make. The index is derived from the
// entries, so it is rebuilt on restore and never serialized. Its masks are
// uint64, which caps NumBuffers at 64. TestStreamBuffersMatchReference holds
// the engine to a scan-only copy of itself.
package streambuf

import (
	"fmt"
	"math/bits"
)

// Config sizes the stream buffer engine.
type Config struct {
	// NumBuffers is the number of independent streams (paper baseline: 8;
	// the weaker configuration in Figure 2 uses 4).
	NumBuffers int
	// BufferEntries is the run-ahead depth of each stream (8 or 4).
	BufferEntries int
	// HistoryEntries sizes the PC-indexed stride table (1024).
	HistoryEntries int
	// ConfidenceThreshold is the stride-match count required before a miss
	// may allocate a buffer.
	ConfidenceThreshold uint8
	// LineSize must match the cache hierarchy's.
	LineSize int
}

// DefaultConfig returns the paper's baseline 8x8 configuration.
func DefaultConfig() Config {
	return Config{
		NumBuffers:          8,
		BufferEntries:       8,
		HistoryEntries:      1024,
		ConfidenceThreshold: 2,
		LineSize:            64,
	}
}

// Config4x4 returns the weaker configuration evaluated in Figure 2.
func Config4x4() Config {
	c := DefaultConfig()
	c.NumBuffers = 4
	c.BufferEntries = 4
	return c
}

// reuseProtectCycles shields a buffer that supplied within this window from
// replacement; a stream consuming a line even once per two memory latencies
// is earning its buffer.
const reuseProtectCycles = 2000

// FillPort starts line fetches on behalf of the buffers; implemented by
// memsys.Hierarchy.StartFill.
type FillPort interface {
	StartFill(lineAddr uint64, now int64) (ready int64, ok bool)
}

// strideEntry is one PC's stride predictor state.
type strideEntry struct {
	pc       uint64
	lastAddr uint64
	stride   int64
	conf     uint8
	valid    bool
}

// bufEntry is one prefetched line in a stream buffer.
type bufEntry struct {
	line  uint64
	ready int64
}

// buffer is one stream.
type buffer struct {
	entries  []bufEntry
	nextLine uint64 // next line address the stream will fetch
	stride   int64  // bytes per step
	lastUse  int64  // cycle of last supply (for LRU replacement)
	active   bool
}

// Stats counts stream buffer activity.
type Stats struct {
	Supplies    uint64 // demand misses served from a buffer
	Fills       uint64 // lines fetched into buffers
	FillsDenied uint64 // fills refused by the port (line already cached)
}

// StreamBuffers is the prefetch engine; it implements memsys.Prefetcher.
type StreamBuffers struct {
	cfg     Config
	port    FillPort
	table   []strideEntry
	buffers []buffer
	// holders is the holder index: holders[slotOf(line)] has bit i set
	// while buffers[i] holds an entry whose line hashes to that slot.
	holders   []uint64
	slotShift uint // 64 - log2(len(holders))
	// lineShift is log2(LineSize) when the line size is a power of two
	// (negative otherwise): lineOf runs per committed load, and the shift
	// avoids a hardware divide there.
	lineShift int
	Stats     Stats
}

// New builds the engine around a fill port. It panics if NumBuffers exceeds
// 64, the width of a holder-index mask.
func New(cfg Config, port FillPort) *StreamBuffers {
	if cfg.NumBuffers > 64 {
		panic(fmt.Sprintf("streambuf: %d buffers exceed the holder index's 64-bit masks", cfg.NumBuffers))
	}
	n := 1
	for n*2 <= cfg.HistoryEntries {
		n *= 2
	}
	// Sixteen slots per buffered line keep collisions rare.
	slots := 1
	for slots < 16*cfg.NumBuffers*cfg.BufferEntries {
		slots *= 2
	}
	s := &StreamBuffers{
		cfg:       cfg,
		port:      port,
		table:     make([]strideEntry, n),
		buffers:   make([]buffer, cfg.NumBuffers),
		holders:   make([]uint64, slots),
		slotShift: uint(64 - bits.TrailingZeros(uint(slots))),
	}
	for i := range s.buffers {
		s.buffers[i].entries = make([]bufEntry, 0, cfg.BufferEntries)
	}
	s.lineShift = -1
	for sh := 0; sh < 32; sh++ {
		if 1<<sh == cfg.LineSize {
			s.lineShift = sh
			break
		}
	}
	return s
}

func (s *StreamBuffers) lineOf(addr uint64) uint64 {
	if s.lineShift >= 0 {
		return addr >> uint(s.lineShift)
	}
	return addr / uint64(s.cfg.LineSize)
}

// slotOf hashes a line to its holder-index slot. Fibonacci hashing spreads
// lines a power of two apart, such as the same offset in aligned arrays,
// over the slots instead of piling them into one.
func (s *StreamBuffers) slotOf(line uint64) uint64 {
	return (line * 0x9E3779B97F4A7C15) >> s.slotShift
}

// Lookup supplies a demand miss from a buffer if any stream holds the line.
// The supplying entry (and any stale entries before it) are consumed and the
// stream advances. Implements memsys.Prefetcher.
func (s *StreamBuffers) Lookup(lineAddr uint64, now int64) (int64, bool) {
	for m := s.holders[s.slotOf(lineAddr)]; m != 0; m &= m - 1 {
		bi := bits.TrailingZeros64(m)
		b := &s.buffers[bi]
		for ei := range b.entries {
			if b.entries[ei].line != lineAddr {
				continue
			}
			ready := b.entries[ei].ready
			// Consume this entry and everything before it (the stream
			// has moved past those lines).
			s.release(bi, b.entries[:ei+1], b.entries[ei+1:])
			b.entries = append(b.entries[:0], b.entries[ei+1:]...)
			b.lastUse = now
			s.Stats.Supplies++
			s.refillTo(bi, now, s.cfg.BufferEntries)
			return ready, true
		}
	}
	return 0, false
}

// release clears buffer bi's holder bits for the gone entries, except in
// slots that one of its kept entries still hashes to.
func (s *StreamBuffers) release(bi int, gone, kept []bufEntry) {
	bit := uint64(1) << uint(bi)
	for _, e := range gone {
		slot := s.slotOf(e.line)
		shared := false
		for _, k := range kept {
			if s.slotOf(k.line) == slot {
				shared = true
				break
			}
		}
		if !shared {
			s.holders[slot] &^= bit
		}
	}
}

// Contains reports (without consuming) whether any stream holds the line.
func (s *StreamBuffers) Contains(lineAddr uint64) bool {
	for m := s.holders[s.slotOf(lineAddr)]; m != 0; m &= m - 1 {
		for _, e := range s.buffers[bits.TrailingZeros64(m)].entries {
			if e.line == lineAddr {
				return true
			}
		}
	}
	return false
}

// Train observes a committed load: updates the stride predictor, and on a
// confident miss allocates a stream. Implements memsys.Prefetcher.
//
// The no-miss path is the fast one: an L1 hit can never allocate or touch a
// buffer, so it pays only the stride-table update and returns. The memsys
// L1-hit short circuit (Hierarchy.LoadFast) relies on this guarantee — a
// Train(…, l1Miss=false) call must be free of buffer side effects or the
// fast path would need to treat every load as a potential stat edge.
func (s *StreamBuffers) Train(pc, addr uint64, now int64, l1Miss bool) {
	e := &s.table[(pc>>3)&uint64(len(s.table)-1)]
	if !e.valid || e.pc != pc {
		*e = strideEntry{pc: pc, lastAddr: addr, valid: true}
		return
	}
	stride := int64(addr) - int64(e.lastAddr)
	e.lastAddr = addr
	if stride == e.stride && stride != 0 {
		if e.conf < 3 {
			e.conf++
		}
	} else {
		e.stride = stride
		if e.conf > 0 {
			e.conf--
		}
	}
	if !l1Miss {
		return
	}
	if e.conf >= s.cfg.ConfidenceThreshold && e.stride != 0 {
		s.allocate(addr, e.stride, now)
	}
}

// allocate starts (or redirects) a stream at addr+stride. If a stream is
// already covering this line sequence it is left alone.
func (s *StreamBuffers) allocate(addr uint64, stride int64, now int64) {
	first := s.nextLine(s.lineOf(addr), addr, stride)
	// A stream already holding this line, or heading for it? Leave it.
	if s.Contains(first) {
		return
	}
	for bi := range s.buffers {
		b := &s.buffers[bi]
		if b.active && b.nextLine == first && b.stride == stride {
			return
		}
	}
	// Pick a victim: an inactive buffer, else the least recently useful —
	// but never one that supplied recently. When every buffer is actively
	// supplying, the would-be new stream simply loses (the paper's PSB
	// "buffers are allocated using a confidence scheme"); this is what
	// keeps a workload with more streams than buffers from degenerating
	// into an allocation storm that thrashes all of them.
	victim := -1
	for bi := range s.buffers {
		if !s.buffers[bi].active {
			victim = bi
			break
		}
	}
	if victim < 0 {
		victim = 0
		for bi := 1; bi < len(s.buffers); bi++ {
			if s.buffers[bi].lastUse < s.buffers[victim].lastUse {
				victim = bi
			}
		}
		if now-s.buffers[victim].lastUse < reuseProtectCycles {
			return
		}
	}
	b := &s.buffers[victim]
	s.release(victim, b.entries, nil)
	b.entries = b.entries[:0]
	b.stride = stride
	b.nextLine = first
	b.lastUse = now
	b.active = true
	// New streams ramp up: fetch a couple of lines now and deepen only as
	// supplies prove the stream useful. This keeps a thrashing allocation
	// storm (more streams than buffers) from flooding the memory bus.
	s.refillTo(victim, now, 2)
}

// nextLine computes the first line strictly after the line containing addr
// along the stride direction.
func (s *StreamBuffers) nextLine(curLine uint64, addr uint64, stride int64) uint64 {
	a := addr
	for {
		a = uint64(int64(a) + stride)
		if l := s.lineOf(a); l != curLine {
			return l
		}
	}
}

// refillTo tops buffer bi up to the given run-ahead depth.
func (s *StreamBuffers) refillTo(bi int, now int64, depth int) {
	b := &s.buffers[bi]
	if depth > s.cfg.BufferEntries {
		depth = s.cfg.BufferEntries
	}
	lineStride := b.stride / int64(s.cfg.LineSize)
	if lineStride == 0 {
		if b.stride > 0 {
			lineStride = 1
		} else {
			lineStride = -1
		}
	}
	// Bound the number of already-cached lines skipped per refill so a
	// stream cannot race arbitrarily far ahead through resident data.
	attempts := 2 * s.cfg.BufferEntries
	for len(b.entries) < depth && attempts > 0 {
		attempts--
		line := b.nextLine
		b.nextLine = uint64(int64(b.nextLine) + lineStride)
		ready, ok := s.port.StartFill(line, now)
		if !ok {
			// Already cached; skip it but keep streaming.
			s.Stats.FillsDenied++
			continue
		}
		b.entries = append(b.entries, bufEntry{line: line, ready: ready})
		s.holders[s.slotOf(line)] |= 1 << uint(bi)
		s.Stats.Fills++
	}
}
