package memsys

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// smallConfig keeps caches tiny so tests can exercise evictions cheaply.
func smallConfig() Config {
	return Config{
		LineSize:      64,
		L1:            CacheConfig{SizeBytes: 1 << 10, Assoc: 2, Latency: 3},  // 16 lines
		L2:            CacheConfig{SizeBytes: 4 << 10, Assoc: 4, Latency: 11}, // 64 lines
		L3:            CacheConfig{SizeBytes: 16 << 10, Assoc: 8, Latency: 35},
		MemLatency:    350,
		BusOccupancy:  8,
		MaxInFlight:   8,
		VictimHistory: 64,
	}
}

func TestColdMissThenHit(t *testing.T) {
	h := New(smallConfig())
	r := h.Load(0x100, 0x4000, 0)
	if r.Outcome != Miss || !r.L1Miss {
		t.Fatalf("cold access: %+v", r)
	}
	if r.Latency != 350 {
		t.Fatalf("cold access latency = %d, want 350", r.Latency)
	}
	// After the fill arrives, the next access hits.
	r = h.Load(0x100, 0x4000, 400)
	if r.Outcome != HitNone || r.Latency != 3 || r.L1Miss {
		t.Fatalf("post-fill access: %+v", r)
	}
}

func TestSameLineDifferentWordHits(t *testing.T) {
	h := New(smallConfig())
	h.Load(0x100, 0x4000, 0)
	r := h.Load(0x104, 0x4038, 400) // same 64B line
	if r.Outcome != HitNone {
		t.Fatalf("same-line access missed: %+v", r)
	}
}

func TestPartialDemandHit(t *testing.T) {
	h := New(smallConfig())
	h.Load(0x100, 0x4000, 0) // miss, ready at 350
	r := h.Load(0x104, 0x4008, 100)
	if r.Outcome != PartialDemand {
		t.Fatalf("overlapping access: %+v", r)
	}
	if r.Latency != 250+3 {
		t.Fatalf("partial latency = %d, want 253", r.Latency)
	}
}

func TestL2AndL3Hits(t *testing.T) {
	cfg := smallConfig()
	h := New(cfg)
	// Fill L1 with line A, then evict it by loading conflicting lines.
	// With 8 sets (16 lines / 2-way), lines A, A+8, A+16 map to one set.
	const numSets = 8
	base := uint64(0x10000)
	h.Load(0, base, 0)
	h.Load(0, base+numSets*64, 1000)
	h.Load(0, base+2*numSets*64, 2000)
	// A should now be out of L1 but in L2.
	r := h.Load(0, base, 3000)
	if r.Outcome != Miss || r.Latency != cfg.L2.Latency {
		t.Fatalf("L2 hit: %+v, want latency %d", r, cfg.L2.Latency)
	}
}

func TestSoftwarePrefetchHidesLatency(t *testing.T) {
	h := New(smallConfig())
	h.Prefetch(0x8000, 0)
	// Arrives at 350; access at 400 is a prefetched hit.
	r := h.Load(0x100, 0x8000, 400)
	if r.Outcome != HitPrefetched || r.Latency != 3 {
		t.Fatalf("prefetched access: %+v", r)
	}
	// Second access to the same line is a plain hit.
	r = h.Load(0x100, 0x8008, 410)
	if r.Outcome != HitNone {
		t.Fatalf("second access after prefetch: %+v", r)
	}
}

func TestLatePrefetchGivesPartialHit(t *testing.T) {
	h := New(smallConfig())
	h.Prefetch(0x8000, 0)
	r := h.Load(0x100, 0x8000, 100)
	if r.Outcome != PartialPrefetch {
		t.Fatalf("late prefetch: %+v", r)
	}
	if r.Latency != 250+3 {
		t.Fatalf("partial prefetch latency = %d, want 253", r.Latency)
	}
	// The "first use" credit was consumed by the partial hit: once the
	// fill lands, later accesses are plain hits.
	r = h.Load(0x100, 0x8000, 500)
	if r.Outcome != HitNone {
		t.Fatalf("post-partial access: %+v", r)
	}
}

func TestRedundantPrefetchDropped(t *testing.T) {
	h := New(smallConfig())
	h.Load(0x100, 0x8000, 0)
	h.Drain(400)
	h.Prefetch(0x8000, 500) // line already in L1
	h.Prefetch(0x9000, 500)
	h.Prefetch(0x9000, 501) // already in flight
	if h.Stats.PrefetchesRedundant != 2 {
		t.Fatalf("redundant = %d, want 2", h.Stats.PrefetchesRedundant)
	}
	if h.Stats.PrefetchesIssued != 3 {
		t.Fatalf("issued = %d, want 3", h.Stats.PrefetchesIssued)
	}
}

func TestPrefetchDroppedWhenMSHRFull(t *testing.T) {
	cfg := smallConfig()
	h := New(cfg)
	for i := 0; i < cfg.MaxInFlight; i++ {
		h.Prefetch(uint64(0x20000+i*64), 0)
	}
	before := h.Stats.PrefetchesDropped
	h.Prefetch(0x40000, 0)
	if h.Stats.PrefetchesDropped != before+1 {
		t.Fatalf("prefetch not dropped at MSHR limit")
	}
	// Demand misses still proceed.
	r := h.Load(0x100, 0x50000, 0)
	if r.Outcome != Miss {
		t.Fatalf("demand miss blocked by MSHR: %+v", r)
	}
}

func TestMissDueToPrefetchClassification(t *testing.T) {
	h := New(smallConfig())
	// Line A resident.
	h.Load(0, 0x4000, 0)
	h.Drain(400)
	// Two prefetches into A's set (8 sets: +8*64 strides) evict A.
	h.Prefetch(0x4000+8*64, 500)
	h.Prefetch(0x4000+16*64, 500)
	h.Drain(1000)
	// First touch of the prefetched lines keeps them resident.
	h.Load(0, 0x4000+8*64, 1100)
	// A's line should have been displaced by a prefetch; a miss on it is
	// classified MissDueToPrefetch.
	r := h.Load(0, 0x4000, 1200)
	if r.Outcome != MissDueToPrefetch {
		t.Fatalf("displaced access: %+v", r)
	}
	// Only once: the victim tag is consumed.
	h.Load(0, 0x4000, 3000)
	h.Load(0, 0x4000+8*64, 3100)
	h.Load(0, 0x4000+16*64, 3200) // plain demand evictions now
	r = h.Load(0, 0x4000, 4000)
	if r.Outcome == MissDueToPrefetch {
		t.Fatalf("victim tag not consumed: %+v", r)
	}
}

func TestWastedPrefetchCounted(t *testing.T) {
	h := New(smallConfig())
	// Prefetch a line, never touch it, then force it out with two demand
	// fills to the same set.
	h.Prefetch(0x4000, 0)
	h.Drain(400)
	h.Load(0, 0x4000+8*64, 500)
	h.Load(0, 0x4000+16*64, 1000)
	h.Load(0, 0x4000+24*64, 1500)
	h.Drain(3000)
	if h.Stats.WastedPrefetches == 0 {
		t.Fatal("eviction of unused prefetched line not counted as wasted")
	}
}

func TestBusOccupancyQueuesFills(t *testing.T) {
	cfg := smallConfig()
	h := New(cfg)
	// Two simultaneous memory fills: the second waits BusOccupancy.
	r1 := h.Load(0, 0x4000, 100)
	r2 := h.Load(0, 0x8000, 100)
	if r1.Latency != cfg.MemLatency {
		t.Fatalf("first fill latency = %d", r1.Latency)
	}
	if r2.Latency != cfg.MemLatency+cfg.BusOccupancy {
		t.Fatalf("queued fill latency = %d, want %d", r2.Latency, cfg.MemLatency+cfg.BusOccupancy)
	}
}

func TestStatsOutcomesSumToLoads(t *testing.T) {
	h := New(smallConfig())
	r := rand.New(rand.NewSource(42))
	now := int64(0)
	for i := 0; i < 20000; i++ {
		addr := uint64(r.Intn(1<<14)) &^ 7
		if r.Intn(4) == 0 {
			h.Prefetch(addr, now)
		} else {
			h.Load(uint64(r.Intn(64))*8, addr, now)
		}
		now += int64(r.Intn(20))
	}
	var sum uint64
	for _, c := range h.Stats.ByOutcome {
		sum += c
	}
	if sum != h.Stats.Loads {
		t.Fatalf("outcome sum %d != loads %d", sum, h.Stats.Loads)
	}
	if h.Stats.L1Misses() > h.Stats.Loads {
		t.Fatal("miss count exceeds loads")
	}
}

func TestLRUReplacementOrder(t *testing.T) {
	c := newCache(CacheConfig{SizeBytes: 4 * 64, Assoc: 4, Latency: 1}, 64)
	// One set of 4 ways (4 lines / 4-way = 1 set).
	for i := uint64(0); i < 4; i++ {
		c.insert(i, false)
	}
	c.lookup(0) // 0 becomes MRU; LRU is 1
	ev, ok := c.insert(100, false)
	if !ok || ev>>1 != 1 {
		t.Fatalf("evicted %#x (ok=%v), want tag 1", ev, ok)
	}
}

func TestCacheInsertExistingRefreshes(t *testing.T) {
	c := newCache(CacheConfig{SizeBytes: 2 * 64, Assoc: 2, Latency: 1}, 64)
	c.insert(1, true)
	c.insert(2, false)
	if ev, ok := c.insert(1, false); ok { // refresh, demand clears prefetched
		t.Fatalf("refresh evicted %#x", ev)
	}
	w := c.lookup(1)
	if w == nil || *w&wayPrefetched != 0 {
		t.Fatalf("refresh did not clear prefetched: %v", w)
	}
	if c.occupancy() != 2 {
		t.Fatalf("occupancy = %d", c.occupancy())
	}
}

func TestLRUOrderIsPermutationProperty(t *testing.T) {
	// Random inserts and lookups keep every set a
	// permutation of distinct tags that map to it, with count <= assoc
	// (DESIGN.md invariant), inside the set's own slice of the flat array.
	f := func(seed int64) bool {
		c := newCache(CacheConfig{SizeBytes: 16 * 64, Assoc: 4, Latency: 1}, 64)
		r := rand.New(rand.NewSource(seed))
		for i := 0; i < 500; i++ {
			c.insert(uint64(r.Intn(64)), r.Intn(2) == 0)
			c.lookup(uint64(r.Intn(64)))
		}
		if len(c.ways) != len(c.count)*c.assoc {
			return false
		}
		for si, k := range c.count {
			set := c.set(uint64(si))
			if k < 0 || int(k) > c.assoc || len(set) != int(k) || cap(set) != c.assoc {
				return false
			}
			seen := map[uint64]bool{}
			for _, w := range set {
				tag := w >> 1
				if seen[tag] || c.setOf(tag) != uint64(si) {
					return false
				}
				seen[tag] = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestVictimSetBounded(t *testing.T) {
	v := newVictimSet(4)
	for i := uint64(0); i < 10; i++ {
		v.add(i)
	}
	if v.len() > 4 {
		t.Fatalf("victim set grew to %d", v.len())
	}
	// The most recent 4 survive.
	for i := uint64(6); i < 10; i++ {
		if !v.remove(i) {
			t.Errorf("recent victim %d missing", i)
		}
	}
	if v.remove(0) {
		t.Error("old victim 0 should have been evicted")
	}
}

func TestVictimSetDuplicateAdd(t *testing.T) {
	v := newVictimSet(4)
	v.add(7)
	v.add(7)
	if v.len() != 1 {
		t.Fatalf("duplicate add grew set to %d", v.len())
	}
	if !v.remove(7) || v.remove(7) {
		t.Fatal("remove semantics broken after duplicate add")
	}
}

func TestStreamBufferSupplier(t *testing.T) {
	h := New(smallConfig())
	sb := &fakeSupplier{ready: map[uint64]int64{h.Line(0xA000): 50}}
	h.SetPrefetcher(sb)
	// Ready supply: prefetched hit at L1 latency.
	r := h.Load(0x100, 0xA000, 100)
	if r.Outcome != HitPrefetched || r.Latency != 3 || r.L1Miss {
		t.Fatalf("ready supply: %+v", r)
	}
	// Line was installed into L1.
	if !h.ContainsL1(0xA000) {
		t.Fatal("supplied line not installed")
	}
	// Not-ready supply: partial prefetch.
	sb.ready[h.Line(0xB000)] = 500
	r = h.Load(0x100, 0xB000, 100)
	if r.Outcome != PartialPrefetch || r.Latency != 400+3 {
		t.Fatalf("late supply: %+v", r)
	}
	if sb.trained != 2 {
		t.Fatalf("prefetcher trained %d times, want 2", sb.trained)
	}
}

type fakeSupplier struct {
	ready   map[uint64]int64
	trained int
}

func (f *fakeSupplier) Lookup(la uint64, now int64) (int64, bool) {
	r, ok := f.ready[la]
	return r, ok
}

func (f *fakeSupplier) Contains(la uint64) bool {
	_, ok := f.ready[la]
	return ok
}

func (f *fakeSupplier) Train(pc, addr uint64, now int64, miss bool) { f.trained++ }

func TestDefaultConfigMatchesPaperTable1(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.L1.SizeBytes != 64<<10 || cfg.L1.Assoc != 2 || cfg.L1.Latency != 3 {
		t.Errorf("L1 config %+v", cfg.L1)
	}
	if cfg.L2.SizeBytes != 512<<10 || cfg.L2.Assoc != 8 || cfg.L2.Latency != 11 {
		t.Errorf("L2 config %+v", cfg.L2)
	}
	if cfg.L3.SizeBytes != 4<<20 || cfg.L3.Assoc != 16 || cfg.L3.Latency != 35 {
		t.Errorf("L3 config %+v", cfg.L3)
	}
	if cfg.MemLatency != 350 {
		t.Errorf("memory latency %d", cfg.MemLatency)
	}
	h := New(cfg)
	if h.L2MissLatency() != 35 {
		t.Errorf("L2MissLatency = %d", h.L2MissLatency())
	}
}

// occupancy returns the number of stored lines (test/debug helper).
func (c *cache) occupancy() int {
	n := 0
	for _, k := range c.count {
		n += int(k)
	}
	return n
}
