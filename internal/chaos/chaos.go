// Package chaos provides deterministic, seeded fault injection for the
// simulated machine. The paper's headline claim is that the prefetcher is
// *self-repairing* (§3.5): the distance controller re-converges when its
// assumptions break. This package manufactures exactly those breaks — memory
// latency phase shifts and spikes, DLT and watch-table eviction storms,
// capacity squeezes, code-cache pressure that unlinks live traces, helper
// thread preemption, and abrupt working-set shifts — on a reproducible
// schedule, so the repair loop and trace re-formation can be stressed and
// their recovery measured (exp.Resilience) and checked (Monitor).
//
// A Schedule is an immutable description: a preset expanded by a seeded
// deterministic generator into timed events. Each simulated System starts
// its own Run cursor over the schedule, so the same Config (including the
// same chaos seed) always perturbs the machine at the same cycles — two
// runs of one configuration are byte-identical, which the determinism
// regression test relies on.
//
// None of the faults change program semantics: they perturb timing and
// monitoring structures only, so architectural transparency (DESIGN §6)
// must survive every preset — that is what the Monitor's transparency check
// verifies.
package chaos

import (
	"fmt"
	"math"
	"sort"
)

// Kind classifies one fault.
type Kind uint8

// Fault kinds.
const (
	// LatencyShift multiplies the memory latency and bus occupancy by Arg
	// for the event's duration — a sustained phase change in the memory
	// system (DRAM contention, frequency scaling).
	LatencyShift Kind = iota
	// LatencySpike is a short, sharp LatencyShift (refresh storms, bursty
	// co-runners). Same mechanics, reported separately.
	LatencySpike
	// DLTFlush invalidates every delinquent-load-table entry at once: all
	// stride history, window counters, and mature flags are lost and the
	// controller must re-learn them.
	DLTFlush
	// DLTSqueeze clamps the DLT's effective associativity to Arg ways for
	// the duration — a capacity squeeze that forces eviction churn.
	DLTSqueeze
	// WatchEvict evicts the Arg oldest watch-table entries: executing hot
	// traces lose their timing history and optimization flags.
	WatchEvict
	// CodeCacheEvict unlinks Arg live traces (most recently placed first):
	// their heads are unpatched back to original code and all prefetch
	// state is dropped, forcing re-formation from scratch.
	CodeCacheEvict
	// HelperPreempt makes the spare hardware context unavailable for the
	// duration: in-flight optimization work is delayed and no new events
	// are dispatched — the optimizer context goes away mid-repair.
	HelperPreempt
	// CacheFlush invalidates the entire cache hierarchy — the memory-system
	// effect of an abrupt working-set shift (context switch, page
	// migration).
	CacheFlush

	numKinds
)

var kindNames = [...]string{
	LatencyShift:   "latency-shift",
	LatencySpike:   "latency-spike",
	DLTFlush:       "dlt-flush",
	DLTSqueeze:     "dlt-squeeze",
	WatchEvict:     "watch-evict",
	CodeCacheEvict: "code-cache-evict",
	HelperPreempt:  "helper-preempt",
	CacheFlush:     "cache-flush",
}

// String names the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "?"
}

// Event is one scheduled fault.
type Event struct {
	Kind Kind
	// At is the cycle the fault fires.
	At int64
	// Duration is the window length for windowed faults (LatencyShift,
	// LatencySpike, DLTSqueeze, HelperPreempt); 0 for instantaneous ones.
	Duration int64
	// Arg is kind-specific: the latency multiplier, the squeezed
	// associativity, or the eviction count.
	Arg int64
}

// windowed reports whether the kind perturbs over an interval (and so needs
// a revert edge).
func (k Kind) windowed() bool {
	switch k {
	case LatencyShift, LatencySpike, DLTSqueeze, HelperPreempt:
		return true
	}
	return false
}

// Preset names a fault mix.
type Preset string

// Presets.
const (
	// PresetLatencyPhase: sustained memory-latency phase shifts plus short
	// spikes.
	PresetLatencyPhase Preset = "latency-phase"
	// PresetEvictionStorm: DLT flush bursts, DLT capacity squeezes,
	// watch-table evictions, and code-cache pressure.
	PresetEvictionStorm Preset = "eviction-storm"
	// PresetHelperPreemption: windows during which the optimizer's
	// hardware context is stolen.
	PresetHelperPreemption Preset = "helper-preemption"
	// PresetWorkloadShift: abrupt working-set shifts (full cache flush plus
	// DLT flush).
	PresetWorkloadShift Preset = "workload-shift"
	// PresetMonkey combines every fault class.
	PresetMonkey Preset = "monkey"
)

// Presets returns every preset name.
func Presets() []Preset {
	return []Preset{
		PresetLatencyPhase, PresetEvictionStorm,
		PresetHelperPreemption, PresetWorkloadShift, PresetMonkey,
	}
}

// Schedule is an immutable fault plan. Build one with NewSchedule (or
// assemble Events by hand for tests), attach it to core.Config, and every
// System constructed from that Config replays it identically.
type Schedule struct {
	Preset Preset
	Seed   uint64
	Events []Event // sorted by At
}

// MinHorizon is the shortest schedule horizon NewSchedule accepts. Fault
// plans over fewer cycles than this are degenerate: every preset's phases
// would collapse to zero-length strides.
const MinHorizon = 1000

// NewSchedule expands a preset into concrete events spread over roughly
// `horizon` cycles, deterministically derived from the seed.
func NewSchedule(preset Preset, seed uint64, horizon int64) (*Schedule, error) {
	// The generators stride through the horizon in fractions down to
	// horizon/16; a horizon too short to keep those strides positive would
	// loop forever appending events, so it is rejected, not clamped.
	if horizon < MinHorizon {
		return nil, fmt.Errorf("chaos: horizon %d too short (need >= %d cycles)", horizon, MinHorizon)
	}
	g := gen{state: seed*0x9e3779b97f4a7c15 + 0x243f6a8885a308d3}
	var events []Event
	switch preset {
	case PresetLatencyPhase:
		events = latencyPhaseEvents(&g, horizon)
	case PresetEvictionStorm:
		events = evictionStormEvents(&g, horizon)
	case PresetHelperPreemption:
		events = helperPreemptionEvents(&g, horizon)
	case PresetWorkloadShift:
		events = workloadShiftEvents(&g, horizon)
	case PresetMonkey:
		events = append(events, latencyPhaseEvents(&g, horizon)...)
		events = append(events, evictionStormEvents(&g, horizon)...)
		events = append(events, helperPreemptionEvents(&g, horizon)...)
		events = append(events, workloadShiftEvents(&g, horizon)...)
	default:
		return nil, fmt.Errorf("chaos: unknown preset %q", preset)
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].At < events[j].At })
	s := &Schedule{Preset: preset, Seed: seed, Events: events}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// Validate rejects malformed schedules with descriptive errors.
func (s *Schedule) Validate() error {
	for i, e := range s.Events {
		if e.Kind >= numKinds {
			return fmt.Errorf("chaos: event %d has unknown kind %d", i, e.Kind)
		}
		if e.At < 0 {
			return fmt.Errorf("chaos: event %d (%s) fires at negative cycle %d", i, e.Kind, e.At)
		}
		if e.Duration < 0 {
			return fmt.Errorf("chaos: event %d (%s) has negative duration %d", i, e.Kind, e.Duration)
		}
		if e.Kind.windowed() && e.Duration == 0 {
			return fmt.Errorf("chaos: event %d (%s) is windowed but has zero duration", i, e.Kind)
		}
		switch e.Kind {
		case LatencyShift, LatencySpike:
			if e.Arg < 1 {
				return fmt.Errorf("chaos: event %d (%s) latency factor %d < 1", i, e.Kind, e.Arg)
			}
		case DLTSqueeze:
			if e.Arg < 1 {
				return fmt.Errorf("chaos: event %d (%s) associativity limit %d < 1", i, e.Kind, e.Arg)
			}
		case WatchEvict, CodeCacheEvict:
			if e.Arg < 1 {
				return fmt.Errorf("chaos: event %d (%s) eviction count %d < 1", i, e.Kind, e.Arg)
			}
		}
		if i > 0 && e.At < s.Events[i-1].At {
			return fmt.Errorf("chaos: events not sorted at index %d", i)
		}
	}
	return nil
}

// latencyPhaseEvents: ~5 sustained ×2..4 phases covering about half the run,
// plus ~10 short ×4..8 spikes.
func latencyPhaseEvents(g *gen, horizon int64) []Event {
	var out []Event
	period := horizon / 5
	for at := period / 2; at+period/2 < horizon; at += period {
		out = append(out, Event{
			Kind:     LatencyShift,
			At:       at + g.rng(-period/8, period/8),
			Duration: period/2 + g.rng(0, period/8),
			Arg:      2 + g.rng(0, 3),
		})
	}
	for i := int64(0); i < 10; i++ {
		out = append(out, Event{
			Kind:     LatencySpike,
			At:       g.rng(0, horizon),
			Duration: 2_000 + g.rng(0, 6_000),
			Arg:      4 + g.rng(0, 5),
		})
	}
	return clampAt(out)
}

// evictionStormEvents: DLT flush bursts, two long capacity squeezes,
// watch-table evictions, and code-cache pressure.
func evictionStormEvents(g *gen, horizon int64) []Event {
	var out []Event
	for at := horizon / 10; at < horizon; at += horizon/8 + g.rng(0, horizon/16) {
		// A storm is a burst of flushes in quick succession.
		burst := 2 + g.rng(0, 3)
		for b := int64(0); b < burst; b++ {
			out = append(out, Event{Kind: DLTFlush, At: at + b*g.rng(2_000, 10_000)})
		}
		out = append(out, Event{Kind: WatchEvict, At: at + g.rng(0, 5_000), Arg: 32 + g.rng(0, 224)})
	}
	for i := int64(0); i < 2; i++ {
		out = append(out, Event{
			Kind:     DLTSqueeze,
			At:       g.rng(horizon/8, horizon),
			Duration: horizon/10 + g.rng(0, horizon/10),
			Arg:      1,
		})
	}
	for at := horizon / 6; at < horizon; at += horizon/5 + g.rng(0, horizon/10) {
		out = append(out, Event{Kind: CodeCacheEvict, At: at, Arg: 2 + g.rng(0, 5)})
	}
	return clampAt(out)
}

// helperPreemptionEvents: the spare context disappears for windows covering
// roughly a third of the run.
func helperPreemptionEvents(g *gen, horizon int64) []Event {
	var out []Event
	period := horizon / 8
	for at := period; at < horizon; at += period + g.rng(0, period/2) {
		out = append(out, Event{
			Kind:     HelperPreempt,
			At:       at,
			Duration: period/3 + g.rng(0, period/3),
		})
	}
	return clampAt(out)
}

// workloadShiftEvents: abrupt working-set shifts — everything cached or
// learned about the old set is stale.
func workloadShiftEvents(g *gen, horizon int64) []Event {
	var out []Event
	for at := horizon / 4; at < horizon; at += horizon/4 + g.rng(0, horizon/8) {
		out = append(out, Event{Kind: CacheFlush, At: at})
		out = append(out, Event{Kind: DLTFlush, At: at + g.rng(0, 2_000)})
	}
	return clampAt(out)
}

// clampAt floors event times at cycle 1 (a fault at cycle 0 would race
// machine construction in no interesting way).
func clampAt(events []Event) []Event {
	for i := range events {
		if events[i].At < 1 {
			events[i].At = 1
		}
	}
	return events
}

// Edge is one application (Enter) or reversion (Exit) of an event, in time
// order.
type Edge struct {
	Event Event
	// Enter is true when the fault is applied, false when its window ends.
	Enter bool
	// At is the cycle this edge is due.
	At int64
}

// Run is a per-System cursor over a Schedule. Schedules are shared and
// immutable; every System starts its own Run so identical configurations
// replay identically.
type Run struct {
	edges []Edge
	idx   int

	// Applied counts edges delivered so far.
	Applied uint64
}

// Start expands the schedule's events into time-ordered edges and returns a
// fresh cursor.
func (s *Schedule) Start() *Run {
	edges := make([]Edge, 0, 2*len(s.Events))
	for _, e := range s.Events {
		edges = append(edges, Edge{Event: e, Enter: true, At: e.At})
		if e.Kind.windowed() {
			edges = append(edges, Edge{Event: e, Enter: false, At: e.At + e.Duration})
		}
	}
	sort.SliceStable(edges, func(i, j int) bool { return edges[i].At < edges[j].At })
	return &Run{edges: edges}
}

// NextAt returns the cycle of the next due edge (MaxInt64 when exhausted),
// so the simulation loop's hot path is one comparison.
func (r *Run) NextAt() int64 {
	if r.idx >= len(r.edges) {
		return math.MaxInt64
	}
	return r.edges[r.idx].At
}

// Due returns every edge due at or before now, advancing the cursor.
func (r *Run) Due(now int64) []Edge {
	start := r.idx
	for r.idx < len(r.edges) && r.edges[r.idx].At <= now {
		r.idx++
	}
	due := r.edges[start:r.idx]
	r.Applied += uint64(len(due))
	return due
}

// gen is a splitmix64 generator; math/rand is avoided so schedules are
// reproducible independent of the stdlib's generator evolution.
type gen struct{ state uint64 }

func (g *gen) next() uint64 {
	g.state += 0x9e3779b97f4a7c15
	z := g.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// rng returns a uniform value in [lo, hi); it returns lo when the range is
// empty.
func (g *gen) rng(lo, hi int64) int64 {
	if hi <= lo {
		return lo
	}
	return lo + int64(g.next()%uint64(hi-lo))
}
