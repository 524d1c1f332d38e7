// Package memsys implements the simulated data-memory hierarchy: L1/L2/L3
// set-associative caches with LRU replacement, a memory bus with occupancy,
// in-flight fill tracking, and the prefetch-aware access classification the
// paper's Figure 6 reports (hits, prefetched hits, partial hits, misses, and
// misses caused by prefetch displacement).
//
// The hierarchy is purely a timing and bookkeeping model: data values live in
// program.Memory; memsys answers "how long does this access take and why".
package memsys

import "fmt"

// CacheConfig sizes one cache level.
type CacheConfig struct {
	// SizeBytes is the total capacity.
	SizeBytes int
	// Assoc is the set associativity.
	Assoc int
	// Latency is the total access latency in cycles for a hit at this
	// level (cumulative from the processor, as in the paper's Table 1).
	Latency int64
}

// Lines returns the number of cache lines given the line size.
func (c CacheConfig) Lines(lineSize int) int { return c.SizeBytes / lineSize }

// cache is one set-associative level with LRU replacement. Its ways live in
// one flat array of numSets×assoc packed words, allocated once by newCache:
// set s owns ways[s*assoc:(s+1)*assoc], of which the first count[s] hold
// lines in recency order (index 0 is the most recently used). A stored way
// packs its line: the line address shifted left by one, with the prefetched
// mark in bit 0. The mark tags a line brought in by a prefetch (software
// prefetch, or a stream-buffer supply) that no demand access has referenced
// yet. The first demand access counts as a prefetched hit and clears it
// (paper §5.3: "the first load access to this block is counted as a
// Hit-prefetched, but any subsequent accesses are counted as Hits-none").
// Packing halves the array against a {tag, prefetched} record; DESIGN §8
// records what that saves.
type cache struct {
	ways    []uint64
	count   []int32
	numSets uint64
	setMask uint64 // numSets-1 when numSets is a power of two, else 0
	assoc   int
	latency int64
}

// wayPrefetched is a packed way's prefetched mark; the line address sits
// above it (way>>1).
const wayPrefetched = 1

// packWay packs a line address and its prefetched mark into one way. Line
// addresses stay below 2⁶³ because lines are at least two bytes wide.
func packWay(lineAddr uint64, prefetched bool) uint64 {
	w := lineAddr << 1
	if prefetched {
		w |= wayPrefetched
	}
	return w
}

// takePrefetched clears a way's prefetched mark, reporting whether it was
// set (the demand access it serves is then a prefetched hit).
func takePrefetched(w *uint64) bool {
	pf := *w&wayPrefetched != 0
	*w &^= wayPrefetched
	return pf
}

// setOf maps a line address to its set index. Every practical configuration
// has a power-of-two set count, turning the modulo — a hardware divide on
// the hottest memsys path — into a mask; odd counts fall back to %.
func (c *cache) setOf(lineAddr uint64) uint64 {
	if c.setMask != 0 {
		return lineAddr & c.setMask
	}
	return lineAddr % c.numSets
}

// set returns set si's occupied ways, with the set's free ways as spare
// capacity.
func (c *cache) set(si uint64) []uint64 {
	base := int(si) * c.assoc
	return c.ways[base : base+int(c.count[si]) : base+c.assoc]
}

func newCache(cfg CacheConfig, lineSize int) *cache {
	lines := cfg.Lines(lineSize)
	if cfg.Assoc <= 0 || lines < cfg.Assoc {
		panic(fmt.Sprintf("memsys: bad cache config %+v", cfg))
	}
	numSets := lines / cfg.Assoc
	c := &cache{
		ways:    make([]uint64, numSets*cfg.Assoc),
		count:   make([]int32, numSets),
		numSets: uint64(numSets),
		assoc:   cfg.Assoc,
		latency: cfg.Latency,
	}
	if n := uint64(numSets); n&(n-1) == 0 {
		c.setMask = n - 1
	}
	return c
}

// lookup probes for lineAddr; on hit it refreshes recency and returns the
// line's way.
func (c *cache) lookup(lineAddr uint64) *uint64 {
	set := c.set(c.setOf(lineAddr))
	for i, w := range set {
		if w>>1 == lineAddr {
			if i != 0 {
				copy(set[1:i+1], set[0:i])
				set[0] = w
			}
			return &set[0]
		}
	}
	return nil
}

// contains probes without updating recency.
func (c *cache) contains(lineAddr uint64) bool {
	for _, w := range c.set(c.setOf(lineAddr)) {
		if w>>1 == lineAddr {
			return true
		}
	}
	return false
}

// insert installs lineAddr as most-recently-used, returning the evicted
// way (ok=false if none was evicted). If the line is already present it is
// refreshed in place and no eviction occurs.
func (c *cache) insert(lineAddr uint64, prefetched bool) (evicted uint64, ok bool) {
	si := c.setOf(lineAddr)
	set := c.set(si)
	for i, w := range set {
		if w>>1 == lineAddr {
			// Re-install: refresh recency; a demand re-install clears the
			// prefetched mark, a prefetch to a present line leaves it.
			if !prefetched {
				w &^= wayPrefetched
			}
			copy(set[1:i+1], set[0:i])
			set[0] = w
			return 0, false
		}
	}
	if len(set) < c.assoc {
		set = set[:len(set)+1]
		c.count[si]++
	} else {
		evicted, ok = set[len(set)-1], true
	}
	copy(set[1:], set[:len(set)-1])
	set[0] = packWay(lineAddr, prefetched)
	return evicted, ok
}

// flush invalidates every line, returning how many still carried the
// prefetched mark (they died unused).
func (c *cache) flush() (prefetched int) {
	for si := range c.count {
		for _, w := range c.set(uint64(si)) {
			prefetched += int(w & wayPrefetched)
		}
		c.count[si] = 0
	}
	return prefetched
}
