package trident

// Value profiling: the prior Trident work (Zhang, Calder, Tullsen, PACT
// 2005) — which this paper extends — performed dynamic value
// specialization on hot traces. The Value Profile Table below is the
// hardware side: a small PC-tagged table watching loads that execute inside
// hot traces for quasi-invariant values. When a load keeps producing the
// same value, an invariant-load event lets the optimizer specialize the
// trace (guard + constant substitution, see trace.SpecializeLoad).

// VPTConfig sizes the value profile table.
type VPTConfig struct {
	Entries int
	Assoc   int
	// Threshold is the confidence at which a value counts as invariant.
	Threshold uint8
	// MinHits is how many confirmations are needed before an event fires
	// (beyond confidence saturation, to avoid specializing cold loads).
	MinHits uint32
}

// DefaultVPTConfig mirrors the DLT's scale.
func DefaultVPTConfig() VPTConfig {
	return VPTConfig{Entries: 512, Assoc: 2, Threshold: 15, MinHits: 256}
}

// VPTEntry is one monitored load's value history.
type VPTEntry struct {
	PC          uint64
	LastValue   uint64
	Confidence  uint8
	Hits        uint32 // accesses observed at saturated confidence
	Specialized bool
	valid       bool
}

// VPT is the value profile table.
type VPT struct {
	cfg     VPTConfig
	sets    [][]VPTEntry
	numSets uint64

	// Events counts invariant-load events raised.
	Events uint64
}

// NewVPT builds a table.
func NewVPT(cfg VPTConfig) *VPT {
	numSets := cfg.Entries / cfg.Assoc
	if numSets <= 0 {
		numSets = 1
	}
	v := &VPT{cfg: cfg, numSets: uint64(numSets)}
	v.sets = make([][]VPTEntry, numSets)
	for i := range v.sets {
		v.sets[i] = make([]VPTEntry, 0, cfg.Assoc)
	}
	return v
}

func (v *VPT) lookup(pc uint64) *VPTEntry {
	set := v.sets[(pc>>3)%v.numSets]
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

// Update observes one committed in-trace load value. It returns true when
// the load newly qualifies as invariant — the invariant-load event.
func (v *VPT) Update(pc, value uint64) bool {
	e := v.lookup(pc)
	if e == nil {
		si := (pc >> 3) % v.numSets
		set := v.sets[si]
		if len(set) < v.cfg.Assoc {
			set = append(set, VPTEntry{})
		}
		copy(set[1:], set[0:len(set)-1])
		set[0] = VPTEntry{PC: pc, LastValue: value, valid: true}
		v.sets[si] = set
		return false
	}
	if e.Specialized {
		return false
	}
	if value == e.LastValue {
		if e.Confidence < v.cfg.Threshold {
			e.Confidence++
		} else if e.Hits < ^uint32(0) {
			e.Hits++
		}
	} else {
		e.LastValue = value
		e.Confidence = 0
		e.Hits = 0
	}
	if e.Confidence >= v.cfg.Threshold && e.Hits >= v.cfg.MinHits {
		e.Specialized = true // one event per stable value
		v.Events++
		return true
	}
	return false
}

// Value returns the invariant value last observed for pc.
func (v *VPT) Value(pc uint64) (uint64, bool) {
	e := v.lookup(pc)
	if e == nil {
		return 0, false
	}
	return e.LastValue, e.Confidence >= v.cfg.Threshold
}

// Despecialize re-arms every specialized entry (used when a trace is
// unlinked, so a new stable value can be discovered).
func (v *VPT) Despecialize() {
	for _, set := range v.sets {
		for i := range set {
			if set[i].valid && set[i].Specialized {
				set[i].Specialized = false
				set[i].Confidence = 0
				set[i].Hits = 0
			}
		}
	}
}
