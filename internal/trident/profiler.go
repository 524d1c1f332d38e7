// Package trident implements the event-driven dynamic optimization
// framework the paper builds on: the hardware branch profiler that detects
// hot traces, the watch table that monitors executing traces, the code
// cache that holds and links optimized traces, the optimization event
// queue, and the helper-thread scheduler with its startup latency and
// occupancy accounting (§3.1, §4.3).
package trident

// ProfilerConfig sizes the branch profiler (Table 2: 256 entries, 4-way,
// 4-bit counters, three standalone 16-bit capture bitmaps).
type ProfilerConfig struct {
	Entries   int
	Assoc     int
	Threshold uint8 // counter saturation value that makes a target hot
	MaxBits   int   // branch-direction bits captured per hot trace
}

// DefaultProfilerConfig mirrors Table 2.
func DefaultProfilerConfig() ProfilerConfig {
	return ProfilerConfig{Entries: 256, Assoc: 4, Threshold: 15, MaxBits: 48}
}

type profEntry struct {
	target  uint64
	counter uint8
	formed  bool // a trace was already generated for this target
	valid   bool
}

// capture is an in-progress branch-direction recording for a hot target.
type capture struct {
	startPC uint64
	bits    []bool
}

// HotTrace is the payload of a hot-trace event: a starting PC and the
// captured branch-direction bitmap (§3.2 "a hot trace is represented as a
// starting PC followed by a branch direction bitmap").
type HotTrace struct {
	StartPC uint64
	Bitmap  []bool
}

// Profiler is the hardware branch profiler. It watches committed backward
// taken branches; when a target's counter saturates it captures the next
// MaxBits conditional-branch directions and emits a HotTrace event.
type Profiler struct {
	cfg     ProfilerConfig
	sets    [][]profEntry // recency-ordered, index 0 = MRU
	numSets uint64
	cap     *capture

	// Stats.
	Events uint64
}

// NewProfiler builds the profiler.
func NewProfiler(cfg ProfilerConfig) *Profiler {
	numSets := cfg.Entries / cfg.Assoc
	if numSets <= 0 {
		numSets = 1
	}
	p := &Profiler{cfg: cfg, numSets: uint64(numSets)}
	p.sets = make([][]profEntry, numSets)
	for i := range p.sets {
		p.sets[i] = make([]profEntry, 0, cfg.Assoc)
	}
	return p
}

// OnCondBranch observes one committed conditional branch. If a capture is
// active the direction is recorded; a completed capture returns a HotTrace
// event. Hot-target counting also happens here (a backward taken
// conditional branch is the loop-closing idiom this ISA produces).
func (p *Profiler) OnCondBranch(pc, target uint64, taken bool) (HotTrace, bool) {
	if p.cap != nil {
		p.cap.bits = append(p.cap.bits, taken)
		if len(p.cap.bits) >= p.cfg.MaxBits {
			ht := HotTrace{StartPC: p.cap.startPC, Bitmap: p.cap.bits}
			p.cap = nil
			p.Events++
			// Mark the target formed now: trace generation is in flight,
			// and a second capture for the same head while the helper
			// thread works would create a duplicate trace that strands
			// execution in the stale copy.
			p.MarkFormed(ht.StartPC)
			return ht, true
		}
	}
	if taken && target < pc {
		p.bump(target)
	}
	return HotTrace{}, false
}

// OnJump observes a committed unconditional direct branch (backward BRs
// close loops too).
func (p *Profiler) OnJump(pc, target uint64) {
	if target < pc {
		p.bump(target)
	}
}

// bump increments the counter for a backward-branch target, starting a
// capture when it saturates.
func (p *Profiler) bump(target uint64) {
	set := p.sets[(target>>3)%p.numSets]
	for i := range set {
		if set[i].valid && set[i].target == target {
			e := set[i]
			copy(set[1:i+1], set[0:i])
			set[0] = e
			if set[0].formed {
				return
			}
			if set[0].counter < p.cfg.Threshold {
				set[0].counter++
				return
			}
			if p.cap == nil {
				p.cap = &capture{startPC: target}
			}
			return
		}
	}
	// Allocate (LRU within the set).
	ne := profEntry{target: target, counter: 1, valid: true}
	si := (target >> 3) % p.numSets
	set = p.sets[si]
	if len(set) < p.cfg.Assoc {
		set = append(set, profEntry{})
	}
	copy(set[1:], set[0:len(set)-1])
	set[0] = ne
	p.sets[si] = set
}

// MarkFormed records that a trace now exists for the target, suppressing
// further captures until the entry is evicted or cleared.
func (p *Profiler) MarkFormed(target uint64) {
	set := p.sets[(target>>3)%p.numSets]
	for i := range set {
		if set[i].valid && set[i].target == target {
			set[i].formed = true
			return
		}
	}
}

// ClearFormed re-enables trace formation for a target (used when a trace is
// unlinked).
func (p *Profiler) ClearFormed(target uint64) {
	set := p.sets[(target>>3)%p.numSets]
	for i := range set {
		if set[i].valid && set[i].target == target {
			set[i].formed = false
			set[i].counter = 0
			return
		}
	}
}

// Capturing reports whether a capture is in progress (test helper).
func (p *Profiler) Capturing() bool { return p.cap != nil }
