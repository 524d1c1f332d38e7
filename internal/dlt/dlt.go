// Package dlt implements the Delinquent Load Table, the hardware structure
// this paper adds to Trident (§3.3): a small associative cache, tagged by
// load PC, that monitors loads executing inside hot traces over fixed-size
// monitoring windows and raises delinquent-load events for loads whose miss
// count and average miss latency cross the configured thresholds. Each
// entry also runs the per-load stride predictor (last address, stride, and
// a 4-bit confidence counter updated +1 on a matching stride and −7 on a
// mismatch; a load is stride-predictable at confidence 15) and carries the
// prefetch mature flag.
package dlt

import (
	"fmt"

	"tridentsp/internal/telemetry"
)

// Config sizes the table and sets the delinquency thresholds (Table 2).
type Config struct {
	// Entries is the total table size (default 1024).
	Entries int
	// Assoc is the set associativity (2).
	Assoc int
	// WindowSize is the load monitoring window: counters are evaluated and
	// reset every WindowSize accesses (256).
	WindowSize uint32
	// MissThreshold is the miss count within a window that makes a load
	// delinquent (8, i.e. ~3% of 256).
	MissThreshold uint32
	// LatencyThreshold is the average miss latency a delinquent load must
	// exceed; the paper uses half of the L2 miss latency.
	LatencyThreshold int64
}

// DefaultConfig mirrors Table 2 with the paper's latency criterion for the
// default memory hierarchy (L2 miss latency 35, halved).
func DefaultConfig() Config {
	return Config{
		Entries:          1024,
		Assoc:            2,
		WindowSize:       256,
		MissThreshold:    8,
		LatencyThreshold: 17,
	}
}

// StrideConfidenceMax is the saturation value at which a load is considered
// stride predictable.
const StrideConfidenceMax = 15

// strideMissPenalty is how much a stride mismatch costs (§3.3:
// "decremented by 7 if they are different").
const strideMissPenalty = 7

// Entry is one monitored load.
type Entry struct {
	PC uint64

	// Monitoring-window counters.
	Access      uint32
	Miss        uint32
	MissLatency int64

	// Stride predictor state (updated on every commit, not just misses).
	LastAddr   uint64
	Stride     int64
	Confidence uint8
	seenAddr   bool

	// Mature suppresses further delinquent events for this load until the
	// entry is evicted (§3.3 "prefetch mature flag").
	Mature bool

	// frozen stops window counting after a delinquent event until the
	// optimizer clears the counters (§3.3: "these counters and total miss
	// latency stay unchanged and will be cleared later by the helper
	// thread during optimization").
	frozen bool

	valid bool
}

// StridePredictable reports whether the confidence counter is saturated.
func (e *Entry) StridePredictable() bool {
	return e.Confidence >= StrideConfidenceMax
}

// AvgMissLatency returns the mean latency of the window's misses.
func (e *Entry) AvgMissLatency() int64 {
	if e.Miss == 0 {
		return 0
	}
	return e.MissLatency / int64(e.Miss)
}

// AvgAccessLatency estimates the mean latency over all accesses in the
// window, counting hits at hitLatency; the self-repairing optimizer tracks
// this to detect when a longer prefetch distance starts hurting (§3.5.2).
func (e *Entry) AvgAccessLatency(hitLatency int64) int64 {
	if e.Access == 0 {
		return hitLatency
	}
	hits := int64(e.Access) - int64(e.Miss)
	return (e.MissLatency + hits*hitLatency) / int64(e.Access)
}

// Table is the delinquent load table.
type Table struct {
	cfg     Config
	sets    [][]Entry // recency ordered, index 0 = MRU
	numSets uint64
	setMask uint64 // numSets-1 when numSets is a power of two, else 0
	tracer  *telemetry.Tracer

	// Stats.
	Events    uint64
	Evictions uint64
}

// New builds a table. The sets are three-index sub-slices of one backing
// array, so they cost two allocations however many there are, and a set's
// capacity is the built associativity (SetAssocLimit's ceiling).
func New(cfg Config) *Table {
	numSets := cfg.Entries / cfg.Assoc
	if numSets <= 0 {
		numSets = 1
	}
	t := &Table{cfg: cfg, numSets: uint64(numSets)}
	if n := uint64(numSets); n&(n-1) == 0 {
		t.setMask = n - 1
	}
	backing := make([]Entry, numSets*cfg.Assoc)
	t.sets = make([][]Entry, numSets)
	for i := range t.sets {
		t.sets[i] = backing[i*cfg.Assoc : i*cfg.Assoc : (i+1)*cfg.Assoc]
	}
	return t
}

// Config returns the table's configuration.
func (t *Table) Config() Config { return t.cfg }

// SetTracer attaches a telemetry tracer; delinquency raises and LRU
// evictions emit events through it. A nil tracer (the default) is free.
func (t *Table) SetTracer(tr *telemetry.Tracer) { t.tracer = tr }

// setIndex maps a load PC to its set: a mask for power-of-two set counts
// (every stock configuration; this runs on every monitored load), % for
// the rest.
func (t *Table) setIndex(pc uint64) uint64 {
	if t.setMask != 0 {
		return (pc >> 3) & t.setMask
	}
	return (pc >> 3) % t.numSets
}

// lookup returns the entry for pc, refreshing recency; nil if absent.
func (t *Table) lookup(pc uint64) *Entry {
	set := t.sets[t.setIndex(pc)]
	for i := range set {
		if set[i].valid && set[i].PC == pc {
			if i != 0 {
				e := set[i]
				copy(set[1:i+1], set[0:i])
				set[0] = e
			}
			return &set[0]
		}
	}
	return nil
}

// Lookup returns the entry for pc without allocating (the optimizer scans
// trace loads this way, accepting partial-window statistics).
func (t *Table) Lookup(pc uint64) (*Entry, bool) {
	e := t.lookup(pc)
	return e, e != nil
}

// UpdateAt records one committed in-trace load at cycle now (stamped onto
// emitted telemetry). miss and missLatency describe the access's cache
// behaviour. It returns true when this access completes a window that
// classifies the load as delinquent — the hardware delinquent-load event.
func (t *Table) UpdateAt(pc, addr uint64, miss bool, missLatency, now int64) bool {
	e := t.lookup(pc)
	if e == nil {
		e = t.allocate(pc, now)
	}

	// Stride predictor: updated on every commit (§3.3).
	if e.seenAddr {
		stride := int64(addr) - int64(e.LastAddr)
		if stride == e.Stride {
			if e.Confidence < StrideConfidenceMax {
				e.Confidence++
			}
		} else {
			if e.Confidence > strideMissPenalty {
				e.Confidence -= strideMissPenalty
			} else {
				e.Confidence = 0
			}
			e.Stride = stride
		}
	}
	e.LastAddr = addr
	e.seenAddr = true

	if e.frozen || e.Mature {
		return false
	}

	e.Access++
	if miss {
		e.Miss++
		e.MissLatency += missLatency
	}

	if e.Access < t.cfg.WindowSize {
		return false
	}
	// Window boundary: evaluate delinquency.
	if e.Miss >= t.cfg.MissThreshold && e.AvgMissLatency() > t.cfg.LatencyThreshold {
		// Counters freeze for the optimizer to read; it clears them.
		e.frozen = true
		t.Events++
		t.tracer.Emit(telemetry.KindDLTDelinquent, now, pc, e.LastAddr,
			int64(e.Miss), e.AvgMissLatency())
		return true
	}
	e.Access, e.Miss, e.MissLatency = 0, 0, 0
	return false
}

// Warm maintains an already-monitored load's stride predictor across a
// functional fast-forward gap (DESIGN §14): last address, stride, and
// confidence advance exactly as UpdateAt would advance them, so the
// optimizer's stride-predictability judgement stays current. The window
// counters are deliberately untouched — warm execution observes no miss
// latencies, so counting its accesses would dilute the average the
// delinquency criterion compares, and freezing here would lose the event
// (UpdateAt's return value is what raises it; warm raises nothing). Loads
// absent from the table are ignored: allocation is a detailed-mode decision
// driven by in-trace execution, and warming every original-code load would
// evict genuinely monitored entries.
func (t *Table) Warm(pc, addr uint64) {
	e := t.lookup(pc)
	if e == nil {
		return
	}
	if e.seenAddr {
		stride := int64(addr) - int64(e.LastAddr)
		if stride == e.Stride {
			if e.Confidence < StrideConfidenceMax {
				e.Confidence++
			}
		} else {
			if e.Confidence > strideMissPenalty {
				e.Confidence -= strideMissPenalty
			} else {
				e.Confidence = 0
			}
			e.Stride = stride
		}
	}
	e.LastAddr = addr
	e.seenAddr = true
}

// allocate inserts a fresh entry for pc, evicting LRU if needed.
func (t *Table) allocate(pc uint64, now int64) *Entry {
	si := t.setIndex(pc)
	set := t.sets[si]
	if len(set) < t.cfg.Assoc {
		set = append(set, Entry{})
	} else {
		t.Evictions++
		t.tracer.Emit(telemetry.KindDLTEvict, now, set[len(set)-1].PC, pc, 0, 0)
	}
	copy(set[1:], set[0:len(set)-1])
	set[0] = Entry{PC: pc, valid: true}
	t.sets[si] = set
	return &set[0]
}

// ClearCounters resets pc's window counters and unfreezes monitoring; the
// optimizer calls this when it finishes processing the load.
func (t *Table) ClearCounters(pc uint64) {
	if e := t.lookup(pc); e != nil {
		e.Access, e.Miss, e.MissLatency = 0, 0, 0
		e.frozen = false
	}
}

// SetMature marks pc as tuned-out: it will raise no more events until the
// entry is evicted.
func (t *Table) SetMature(pc uint64) {
	if e := t.lookup(pc); e != nil {
		e.Mature = true
		e.frozen = false
	}
}

// IsDelinquent applies the delinquency criteria to pc's current (possibly
// partial) window, as the optimizer does when it scans the other loads of a
// trace ("if a load has not yet completed execution of a full monitoring
// window, its miss rate and latency are calculated using current counter
// values in a partial monitoring window", §3.4.1). Mature loads are never
// delinquent.
func (t *Table) IsDelinquent(pc uint64) bool {
	e := t.lookup(pc)
	if e == nil || e.Mature || e.Access == 0 {
		return false
	}
	// Scale the miss threshold to the partial window, keeping the same
	// miss-rate criterion; require at least a quarter window of history
	// before judging.
	if e.Access < t.cfg.WindowSize/4 {
		return false
	}
	needMisses := uint64(t.cfg.MissThreshold) * uint64(e.Access) / uint64(t.cfg.WindowSize)
	if needMisses == 0 {
		needMisses = 1
	}
	return uint64(e.Miss) >= needMisses && e.AvgMissLatency() > t.cfg.LatencyThreshold
}

// Flush invalidates every entry — stride history, window counters, and
// mature flags are all lost (fault injection: an eviction storm wiping the
// table). Returns how many entries were dropped.
func (t *Table) Flush() int {
	n := 0
	for i, set := range t.sets {
		n += len(set)
		t.Evictions += uint64(len(set))
		t.sets[i] = set[:0]
	}
	return n
}

// SetAssocLimit clamps the table's effective associativity to ways (fault
// injection: a capacity squeeze), trimming each set's LRU tail immediately.
// Pass the configured associativity (or more) to lift the squeeze. Values
// below 1 are clamped to 1; the limit never exceeds the built capacity.
func (t *Table) SetAssocLimit(ways int) {
	if ways < 1 {
		ways = 1
	}
	if ways > cap(t.sets[0]) {
		ways = cap(t.sets[0])
	}
	for i, set := range t.sets {
		if len(set) > ways {
			t.Evictions += uint64(len(set) - ways)
			t.sets[i] = set[:ways]
		}
	}
	t.cfg.Assoc = ways
}

// CheckInvariants verifies the table's internal consistency (DESIGN §6):
// stride confidence saturates at StrideConfidenceMax, window counters never
// exceed the window size, misses never exceed accesses, and sets respect
// the (possibly squeezed) associativity. Returns nil when all hold.
func (t *Table) CheckInvariants() error {
	for si, set := range t.sets {
		if len(set) > t.cfg.Assoc {
			return fmt.Errorf("dlt: set %d holds %d entries, associativity %d", si, len(set), t.cfg.Assoc)
		}
		for i := range set {
			e := &set[i]
			if !e.valid {
				continue
			}
			if e.Confidence > StrideConfidenceMax {
				return fmt.Errorf("dlt: pc %#x stride confidence %d > %d", e.PC, e.Confidence, StrideConfidenceMax)
			}
			if e.Access > t.cfg.WindowSize {
				return fmt.Errorf("dlt: pc %#x window access count %d > window size %d", e.PC, e.Access, t.cfg.WindowSize)
			}
			if e.Miss > e.Access {
				return fmt.Errorf("dlt: pc %#x misses %d > accesses %d", e.PC, e.Miss, e.Access)
			}
			if e.Miss == 0 && e.MissLatency != 0 {
				return fmt.Errorf("dlt: pc %#x has miss latency %d with zero misses", e.PC, e.MissLatency)
			}
		}
	}
	return nil
}

// Len counts valid entries (test helper).
func (t *Table) Len() int {
	n := 0
	for _, set := range t.sets {
		n += len(set)
	}
	return n
}
