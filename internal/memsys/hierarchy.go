package memsys

import "math"

// Config describes the whole memory hierarchy. The defaults reproduce the
// paper's Table 1.
type Config struct {
	LineSize int

	L1, L2, L3 CacheConfig

	// MemLatency is the cycles for an access that misses every cache.
	MemLatency int64

	// BusOccupancy is how many cycles one memory-level fill holds the
	// shared bus; queued fills wait. This is what makes over-aggressive
	// prefetching cost something beyond pollution.
	BusOccupancy int64

	// MaxInFlight bounds outstanding fills (MSHR-like). Prefetches beyond
	// the bound are dropped; demand misses always proceed.
	MaxInFlight int

	// VictimHistory bounds how many prefetch-displaced victim tags are
	// remembered for miss-due-to-prefetching classification.
	VictimHistory int
}

// DefaultConfig returns the paper's Table 1 memory parameters: 64 KB 2-way
// L1 (3 cycles), 512 KB 8-way L2 (11 cycles), 4 MB 16-way L3 (35 cycles),
// 350-cycle memory.
func DefaultConfig() Config {
	return Config{
		LineSize:      64,
		L1:            CacheConfig{SizeBytes: 64 << 10, Assoc: 2, Latency: 3},
		L2:            CacheConfig{SizeBytes: 512 << 10, Assoc: 8, Latency: 11},
		L3:            CacheConfig{SizeBytes: 4 << 20, Assoc: 16, Latency: 35},
		MemLatency:    350,
		BusOccupancy:  16,
		MaxInFlight:   32,
		VictimHistory: 4096,
	}
}

// Outcome classifies one demand load access, matching the categories of the
// paper's Figure 6.
type Outcome uint8

// Outcomes.
const (
	// HitNone: L1 hit on a line not (or no longer) marked prefetched.
	HitNone Outcome = iota
	// HitPrefetched: first demand access to a prefetched line that arrived
	// in time (including stream-buffer supplies that are ready).
	HitPrefetched
	// PartialPrefetch: the line was being prefetched but had not arrived;
	// the load waits the residual latency.
	PartialPrefetch
	// PartialDemand: the line was being fetched by an earlier demand miss.
	PartialDemand
	// Miss: an ordinary miss served by L2/L3/memory.
	Miss
	// MissDueToPrefetch: a miss on a line that was displaced from L1 by a
	// prefetch-installed line (paper §5.3 victim-tag mechanism).
	MissDueToPrefetch
)

var outcomeNames = [...]string{
	HitNone: "hit", HitPrefetched: "hit-prefetched",
	PartialPrefetch: "partial-prefetch", PartialDemand: "partial-demand",
	Miss: "miss", MissDueToPrefetch: "miss-due-to-prefetch",
}

// String names the outcome.
func (o Outcome) String() string { return outcomeNames[o] }

// NumOutcomes is the number of Outcome values.
const NumOutcomes = len(outcomeNames)

// FillSource records what initiated a fill.
type FillSource uint8

// Fill sources.
const (
	FillDemand FillSource = iota
	FillSWPrefetch
	FillStreamBuffer
)

// Result describes one demand load access.
type Result struct {
	// Latency is the total observed cycles for the load.
	Latency int64
	// Outcome is the Figure-6 classification.
	Outcome Outcome
	// L1Miss reports whether the access took longer than an L1 hit; the
	// delinquent load table counts these as misses.
	L1Miss bool
}

// WouldMiss reports whether the access either missed L1 or only hit because
// a prefetch covered it — the "would-be miss" the coverage statistics count.
func (r Result) WouldMiss() bool {
	return r.L1Miss || r.Outcome == HitPrefetched
}

// Prefetcher is an optional hardware prefetch engine (the stream buffers)
// consulted on L1 misses and trained on every load.
type Prefetcher interface {
	// Lookup is consulted on an L1 miss. If the prefetcher holds (or is
	// fetching) the line it returns the cycle the data is ready and true;
	// the hierarchy then installs the line into L1 marked prefetched.
	// Lookup consumes the supplying entry and lets the stream run ahead.
	Lookup(lineAddr uint64, now int64) (ready int64, ok bool)
	// Contains reports whether the prefetcher holds or is fetching the
	// line, without consuming it; used to squash redundant software
	// prefetches.
	Contains(lineAddr uint64) bool
	// Train observes a committed load.
	Train(pc, addr uint64, now int64, l1Miss bool)
}

// fill is an in-flight line fetch. The L1 way is reserved eagerly when the
// fill starts (so replacement and pollution happen at the right time); the
// fill entry carries the residual timing until the data arrives.
type fill struct {
	ready  int64
	source FillSource
}

// Stats aggregates hierarchy activity.
type Stats struct {
	Loads     uint64
	Stores    uint64
	ByOutcome [NumOutcomes]uint64

	L1Hits, L2Hits, L3Hits, MemAccesses uint64

	PrefetchesIssued    uint64 // software prefetch instructions seen
	PrefetchesRedundant uint64 // dropped: line present or already in flight
	PrefetchesDropped   uint64 // dropped: MSHR full
	WastedPrefetches    uint64 // prefetched lines evicted before first use

	TotalLoadLatency int64
	TotalMissLatency int64 // latency of accesses with L1Miss
}

// L1Misses returns the number of loads that did not hit in L1.
func (s *Stats) L1Misses() uint64 {
	return s.ByOutcome[PartialPrefetch] + s.ByOutcome[PartialDemand] +
		s.ByOutcome[Miss] + s.ByOutcome[MissDueToPrefetch]
}

// Hierarchy is the simulated memory system.
type Hierarchy struct {
	cfg        Config
	lineShift  uint
	l1, l2, l3 *cache
	inflight   *oaTable[fill]
	busFree    int64
	prefetcher Prefetcher
	victims    *victimSet

	// fillHeap is a lazy min-heap of the ready cycles of fills that were in
	// flight at some point: puts push, deletions leave stale entries behind
	// (they only ever make the heap's answer conservative), and EarliestFill
	// pops everything at or below the current cycle. Bounded by the fills
	// issued within one memory latency of now, so it stays tiny.
	fillHeap []int64

	// warming neutralizes StartFill's timing side effects while the warm
	// probes (warm.go) train the prefetcher: fills answer "ready now" with
	// no bus, stats, or lower-level traffic. Transient — set and cleared
	// around individual warm calls, never serialized.
	warming bool

	// Stats is exported for the stats collector; it is not safe for
	// concurrent mutation (the simulator is single-goroutine).
	Stats Stats
}

// New builds a hierarchy from cfg.
func New(cfg Config) *Hierarchy {
	shift := uint(0)
	for 1<<shift < cfg.LineSize {
		shift++
	}
	if 1<<shift != cfg.LineSize || shift == 0 {
		panic("memsys: line size must be a power of two of at least 2")
	}
	return &Hierarchy{
		cfg:       cfg,
		lineShift: shift,
		l1:        newCache(cfg.L1, cfg.LineSize),
		l2:        newCache(cfg.L2, cfg.LineSize),
		l3:        newCache(cfg.L3, cfg.LineSize),
		inflight:  newOATable[fill](cfg.MaxInFlight),
		victims:   newVictimSet(cfg.VictimHistory),
	}
}

// Config returns the hierarchy's configuration.
func (h *Hierarchy) Config() Config { return h.cfg }

// SetPrefetcher attaches a hardware prefetch engine (nil to disable).
func (h *Hierarchy) SetPrefetcher(p Prefetcher) { h.prefetcher = p }

// Line returns the line address containing addr.
func (h *Hierarchy) Line(addr uint64) uint64 { return addr >> h.lineShift }

// L1Latency returns the L1 hit latency; loads slower than this are counted
// as misses by the delinquent load table.
func (h *Hierarchy) L1Latency() int64 { return h.cfg.L1.Latency }

// L2MissLatency returns the cost of an access that misses in L2 (an L3
// hit); the DLT's delinquency test compares average miss latency against
// half of this, per §3.3.
func (h *Hierarchy) L2MissLatency() int64 { return h.cfg.L3.Latency }

// MemLatency returns the full memory access latency; the optimizer divides
// it by a trace's minimal execution time to bound the prefetch distance.
func (h *Hierarchy) MemLatency() int64 { return h.cfg.MemLatency }

// Load performs a demand load by the main thread at cycle now.
func (h *Hierarchy) Load(pc, addr uint64, now int64) Result {
	la := h.Line(addr)
	h.sweep(now)
	h.Stats.Loads++

	res := h.loadLine(la, now)

	h.Stats.TotalLoadLatency += res.Latency
	if res.L1Miss {
		h.Stats.TotalMissLatency += res.Latency
	}
	h.Stats.ByOutcome[res.Outcome]++
	if h.prefetcher != nil {
		h.prefetcher.Train(pc, addr, now, res.L1Miss)
	}
	return res
}

// LoadFast is the L1-hit short circuit for Load. When it returns ok the
// access has fully committed and Result plus every Stats field are
// bit-identical to what Load would have produced; when it returns !ok the
// hierarchy is untouched and the caller must run Load instead.
//
// The fast path applies only when the slow path's extra machinery is
// provably inert: below MSHR capacity sweep is a no-op, and with no
// in-flight fill for the line (pending or expired) the inflight probe
// neither classifies a partial hit nor retires an entry. An L1 hit then
// reduces Load to the recency bump, the stats bumps, and a no-miss Train
// call — which by construction never allocates a stream.
func (h *Hierarchy) LoadFast(pc, addr uint64, now int64) (Result, bool) {
	la := h.Line(addr)
	if !h.fastGate(la) {
		return Result{}, false
	}
	w := h.l1.lookup(la) // pure on miss: recency moves only on hit
	if w == nil {
		return Result{}, false
	}
	h.Stats.Loads++
	h.Stats.L1Hits++
	out := HitNone
	if takePrefetched(w) {
		out = HitPrefetched
	}
	res := Result{Latency: h.cfg.L1.Latency, Outcome: out}
	h.Stats.TotalLoadLatency += res.Latency
	h.Stats.ByOutcome[res.Outcome]++
	if h.prefetcher != nil {
		h.prefetcher.Train(pc, addr, now, false)
	}
	return res, true
}

// fastGate is the pure precondition shared by every fast probe: below MSHR
// capacity (sweep provably inert) and no in-flight fill for the line (the
// inflight probe classifies nothing). Kept tiny so the batch executors'
// per-load gates inline it.
func (h *Hierarchy) fastGate(la uint64) bool {
	return h.inflight.len() < h.cfg.MaxInFlight && !h.inflight.contains(la)
}

// CanLoadFast reports whether LoadFast(pc, addr, now) would succeed,
// without committing anything. The batch engine uses it to decide whether
// launching a superblock at a trace head is guaranteed to retire at least
// its first instruction.
func (h *Hierarchy) CanLoadFast(addr uint64, now int64) bool {
	la := h.Line(addr)
	return h.fastGate(la) && h.l1.contains(la)
}

func (h *Hierarchy) loadLine(la uint64, now int64) Result {
	// In-flight fill probe: a line whose data has not arrived yet gives a
	// partial hit for the residual latency; the first use of a prefetch
	// is consumed by that partial hit.
	if f, ok := h.inflight.get(la); ok {
		if f.ready > now {
			lat := f.ready - now + h.cfg.L1.Latency
			out := PartialDemand
			if f.source != FillDemand {
				out = PartialPrefetch
				if w := h.l1.lookup(la); w != nil {
					takePrefetched(w)
				}
			}
			return Result{Latency: lat, Outcome: out, L1Miss: true}
		}
		h.fillDel(la)
	}

	// L1 probe.
	if w := h.l1.lookup(la); w != nil {
		h.Stats.L1Hits++
		out := HitNone
		if takePrefetched(w) {
			out = HitPrefetched
		}
		return Result{Latency: h.cfg.L1.Latency, Outcome: out}
	}

	// Stream-buffer probe. A supplied line enters the cache hierarchy on
	// use (L1 plus the lower levels); lines that die unused in a buffer
	// never pollute the caches.
	if h.prefetcher != nil {
		if ready, ok := h.prefetcher.Lookup(la, now); ok {
			h.installL1(la, FillStreamBuffer) // first use consumed immediately
			h.l2.insert(la, false)
			h.l3.insert(la, false)
			if ready <= now {
				return Result{Latency: h.cfg.L1.Latency, Outcome: HitPrefetched}
			}
			return Result{Latency: ready - now + h.cfg.L1.Latency, Outcome: PartialPrefetch, L1Miss: true}
		}
	}

	// Miss: find the supplying level, reserve the L1 way now, and track
	// the fill so that nearby accesses to the same line see partial hits
	// rather than paying twice.
	lat, _ := h.probeBelow(la, now, true, true)
	out := Miss
	if h.victims.remove(la) {
		out = MissDueToPrefetch
	}
	h.installL1(la, FillDemand)
	h.fillPut(la, fill{ready: now + lat, source: FillDemand})
	return Result{Latency: lat, Outcome: out, L1Miss: true}
}

// Store performs a demand store. Stores are write-through and non-blocking:
// they update recency if the line is present but never allocate or stall.
// Like Load, a store first retires completed fills: the recency state a
// store touches must be the same state a load at the same cycle would see.
func (h *Hierarchy) Store(addr uint64, now int64) {
	h.sweep(now)
	h.Stats.Stores++
	la := h.Line(addr)
	h.l1.lookup(la)
}

// StoreFast is Store's short circuit: when the MSHR is below capacity,
// Store's sweep is a no-op and the store reduces to a stats bump plus the
// recency touch. Returns false (hierarchy untouched) when the caller must
// run Store.
func (h *Hierarchy) StoreFast(addr uint64, now int64) bool {
	if h.inflight.len() >= h.cfg.MaxInFlight {
		return false
	}
	h.Stats.Stores++
	h.l1.lookup(h.Line(addr))
	return true
}

// CanStoreFast reports whether StoreFast would succeed.
func (h *Hierarchy) CanStoreFast() bool {
	return h.inflight.len() < h.cfg.MaxInFlight
}

// Prefetch handles a software prefetch instruction: non-binding, non-
// faulting, never stalls. The fill installs into L1 (marked prefetched) and
// L2 when it completes.
func (h *Hierarchy) Prefetch(addr uint64, now int64) {
	la := h.Line(addr)
	h.sweep(now)
	h.Stats.PrefetchesIssued++
	if h.l1.contains(la) {
		h.Stats.PrefetchesRedundant++
		return
	}
	if h.inflight.contains(la) {
		h.Stats.PrefetchesRedundant++
		return
	}
	if h.prefetcher != nil && h.prefetcher.Contains(la) {
		h.Stats.PrefetchesRedundant++
		return
	}
	if h.inflight.len() >= h.cfg.MaxInFlight {
		h.Stats.PrefetchesDropped++
		return
	}
	lat, _ := h.probeBelow(la, now, true, true)
	h.installL1(la, FillSWPrefetch)
	h.fillPut(la, fill{ready: now + lat, source: FillSWPrefetch})
}

// StartFill initiates a line fetch on behalf of the hardware stream
// buffers. The line is fetched toward the buffer only — it does not
// allocate in any cache level — and the hierarchy accounts for the source
// latency and bus occupancy. ok is false when the line is already cached
// in L1 or being fetched there (the buffer should not duplicate it).
func (h *Hierarchy) StartFill(lineAddr uint64, now int64) (ready int64, ok bool) {
	if h.l1.contains(lineAddr) {
		return 0, false
	}
	if h.inflight.contains(lineAddr) {
		return 0, false
	}
	if h.warming {
		// Warm probes: the line is considered fetched instantly — no bus
		// occupancy, level stats, or install (see warm.go).
		return now, true
	}
	lat, _ := h.probeBelow(lineAddr, now, true, false)
	return now + lat, true
}

// probeBelow determines the latency of fetching a line from below L1,
// optionally consuming bus bandwidth for memory-level fetches. When
// install is set (demand misses and software prefetches) the line is
// installed into the levels it passes on the way up; stream-buffer fills
// go to the buffer only.
func (h *Hierarchy) probeBelow(la uint64, now int64, occupyBus, install bool) (lat int64, level int) {
	if h.l2.lookup(la) != nil {
		h.Stats.L2Hits++
		return h.cfg.L2.Latency, 2
	}
	if h.l3.lookup(la) != nil {
		h.Stats.L3Hits++
		if install {
			h.l2.insert(la, false)
		}
		return h.cfg.L3.Latency, 3
	}
	h.Stats.MemAccesses++
	lat = h.cfg.MemLatency
	if occupyBus {
		if h.busFree > now {
			lat += h.busFree - now
			h.busFree += h.cfg.BusOccupancy
		} else {
			h.busFree = now + h.cfg.BusOccupancy
		}
	}
	if install {
		h.l3.insert(la, false)
		h.l2.insert(la, false)
	}
	return lat, 4
}

// installL1 installs la into L1 for a fill from source by (only a software
// prefetch leaves the prefetched mark) and accounts the way it evicts: a
// line still marked prefetched died unused, and a line displaced by any
// prefetch joins the victim-tag history.
func (h *Hierarchy) installL1(la uint64, by FillSource) {
	ev, ok := h.l1.insert(la, by == FillSWPrefetch)
	if !ok {
		return
	}
	if ev&wayPrefetched != 0 {
		h.Stats.WastedPrefetches++
	}
	if by != FillDemand {
		h.victims.add(ev >> 1)
	}
}

// sweep retires completed fills so they stop counting against the MSHR
// budget. Lines were installed eagerly when the fill started, so retiring
// is just deletion. To keep the hot path cheap it only scans when the
// in-flight set is at capacity.
func (h *Hierarchy) sweep(now int64) {
	if h.inflight.len() < h.cfg.MaxInFlight {
		return
	}
	h.inflight.deleteWhere(func(_ uint64, f fill) bool { return f.ready <= now })
}

// Drain retires every fill completed by now; tests use it to reach a
// settled state.
func (h *Hierarchy) Drain(now int64) {
	h.inflight.deleteWhere(func(_ uint64, f fill) bool { return f.ready <= now })
}

// fillPut tracks a new in-flight fill and pushes its ready cycle onto the
// lazy heap backing EarliestFill.
func (h *Hierarchy) fillPut(la uint64, f fill) {
	hp := append(h.fillHeap, f.ready)
	for i := len(hp) - 1; i > 0; {
		p := (i - 1) / 2
		if hp[p] <= hp[i] {
			break
		}
		hp[p], hp[i] = hp[i], hp[p]
		i = p
	}
	h.fillHeap = hp
	h.inflight.put(la, f)
}

// fillDel removes an in-flight fill. The heap entry is left behind:
// deletion can only raise the true minimum, so the stale entry makes
// EarliestFill answer early at worst — an early horizon just splits a
// batch, never produces a wrong one — and it pops as soon as the clock
// passes its ready cycle.
func (h *Hierarchy) fillDel(la uint64) {
	h.inflight.del(la)
}

// EarliestFill returns a cycle no later than the earliest ready cycle
// strictly after now among in-flight fills, or math.MaxInt64 when none is
// pending. The batch engine folds this into the event horizon so a batch
// never runs past the cycle a partial hit's residual latency would change;
// a conservative (early) answer is harmless. Ready cycles are immutable, so
// heap entries at or below now can never matter again and are popped.
func (h *Hierarchy) EarliestFill(now int64) int64 {
	hp := h.fillHeap
	for len(hp) > 0 && hp[0] <= now {
		n := len(hp) - 1
		hp[0] = hp[n]
		hp = hp[:n]
		for i := 0; ; {
			c := 2*i + 1
			if c >= n {
				break
			}
			if c+1 < n && hp[c+1] < hp[c] {
				c++
			}
			if hp[i] <= hp[c] {
				break
			}
			hp[i], hp[c] = hp[c], hp[i]
			i = c
		}
	}
	h.fillHeap = hp
	if len(hp) == 0 {
		return math.MaxInt64
	}
	return hp[0]
}

// InFlight returns the number of outstanding fills.
func (h *Hierarchy) InFlight() int { return h.inflight.len() }

// SetMemLatency changes the memory access latency mid-run (fault injection:
// a memory-system phase shift). Accesses already in flight keep the latency
// they were issued with. Values below 1 are clamped to 1.
func (h *Hierarchy) SetMemLatency(lat int64) {
	if lat < 1 {
		lat = 1
	}
	h.cfg.MemLatency = lat
}

// SetBusOccupancy changes the per-fill bus occupancy mid-run (fault
// injection). Values below 1 are clamped to 1.
func (h *Hierarchy) SetBusOccupancy(occ int64) {
	if occ < 1 {
		occ = 1
	}
	h.cfg.BusOccupancy = occ
}

// FlushCaches invalidates every line in every level and cancels in-flight
// fills — the memory-system effect of an abrupt working-set shift. L1 lines
// still carrying the prefetched mark die unused and are counted as wasted
// prefetches, like any other eviction. The victim history is cleared: a
// flushed line's next miss is the flush's fault, not prefetching's.
func (h *Hierarchy) FlushCaches() {
	h.Stats.WastedPrefetches += uint64(h.l1.flush())
	h.l2.flush()
	h.l3.flush()
	h.inflight.clear()
	h.fillHeap = h.fillHeap[:0]
	h.victims.clear()
}

// ContainsL1 reports whether the line holding addr is resident in L1
// (test helper).
func (h *Hierarchy) ContainsL1(addr uint64) bool { return h.l1.contains(h.Line(addr)) }

// victimSet is a bounded set of line tags displaced from L1 by prefetches,
// used to classify later misses as caused by prefetching. It evicts FIFO.
// The tag index is an open-addressed table sized at construction, so the
// per-miss membership probe never touches a Go map.
type victimSet struct {
	idx   *oaTable[int32] // tag -> ring index
	ring  []uint64
	next  int
	valid []bool
}

func newVictimSet(capacity int) *victimSet {
	if capacity <= 0 {
		capacity = 1
	}
	return &victimSet{
		idx:   newOATable[int32](capacity),
		ring:  make([]uint64, capacity),
		valid: make([]bool, capacity),
	}
}

func (v *victimSet) add(tag uint64) {
	if v.idx.contains(tag) {
		return
	}
	if v.valid[v.next] {
		v.idx.del(v.ring[v.next])
	}
	v.ring[v.next] = tag
	v.valid[v.next] = true
	v.idx.put(tag, int32(v.next))
	v.next = (v.next + 1) % len(v.ring)
}

func (v *victimSet) remove(tag uint64) bool {
	i, ok := v.idx.get(tag)
	if !ok {
		return false
	}
	v.idx.del(tag)
	v.valid[i] = false
	return true
}

func (v *victimSet) len() int { return v.idx.len() }

// clear empties the set, keeping its capacity.
func (v *victimSet) clear() {
	v.idx.clear()
	for i := range v.valid {
		v.valid[i] = false
	}
	v.next = 0
}
