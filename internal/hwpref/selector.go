package hwpref

import (
	"fmt"

	"tridentsp/internal/telemetry"
)

// SelectorConfig shapes the epoch machinery.
type SelectorConfig struct {
	// ProbeLoads is one probe epoch's length in committed loads: each
	// backend in turn becomes the active (fill-issuing) backend for this
	// many loads while its counters are scored.
	ProbeLoads uint64
	// ExploitFactor scales the exploit epoch: the round's winner stays
	// active for ProbeLoads*ExploitFactor loads before the next probe
	// round starts. The periodic re-probe is what re-converges the policy
	// after a phase change or an injected fault storm. When the same
	// backend wins consecutive rounds the exploit window doubles, up to
	// maxBoost× this base length, so a stable phase pays almost no probe
	// tax; the first round with a different winner snaps it back.
	ExploitFactor uint64
}

// maxBoost caps the consecutive-winner exploit stretch at 32× the base
// exploit epoch: long enough to make steady-state probing nearly free
// (under 1% of loads with the default shape), short enough that a missed
// phase change costs at most one stretched window.
const maxBoost = 32

// DefaultSelectorConfig returns the epoch shape used by the figures: a
// 2k-load probe per backend and a 16× exploit window, i.e. a full
// probe+exploit round every ~40k loads with the default four backends
// until the boost stretches the exploit phase.
func DefaultSelectorConfig() SelectorConfig {
	return SelectorConfig{ProbeLoads: 2000, ExploitFactor: 16}
}

// Decision is one policy activation, the unit the determinism suites
// compare: identical streams of committed loads must yield identical
// decision logs on every execution path.
type Decision struct {
	Loads   uint64 // committed loads observed when the decision fired
	Cycle   int64  // simulation clock at the decision
	Backend int    // activated backend (index into Names order)
	Exploit bool   // exploit-epoch winner (false: probe activation)
	Score   int64  // winner's score (0 for probe activations)
}

// maxDecisions bounds the retained log; both sides of a determinism
// comparison truncate identically, and DecisionCount keeps the true total.
const maxDecisions = 1 << 16

// Selector owns the arsenal and implements memsys.Prefetcher. All backends
// train on every committed load so each probe starts warm, but only the
// active backend's proposals reach the fill port. With a single backend the
// epoch machinery is inert — that is the static configuration.
type Selector struct {
	cfg  Config
	scfg SelectorConfig
	port FillPort

	engines []*engine
	buf     []bufLine // the shared prefetch buffer (hwpref.go)
	shift   uint

	active   int
	probing  bool
	probeIdx int
	loads    uint64 // committed loads observed (the epoch clock)
	epochEnd uint64 // loads value at which the current epoch ends

	markCycle int64   // simulation clock at the current probe's start
	scores    []int64 // last completed round's scores
	rounds    uint64  // probe rounds completed
	switches  uint64  // exploit winner changed vs the previous round
	lastWin   int
	boost     uint64   // exploit-length multiplier (1..maxBoost)
	residency []uint64 // loads observed while each backend was active

	decisions     []Decision
	decisionCount uint64

	tel     *telemetry.Tracer
	scratch []uint64
}

// New builds a selector over the given backends (at least one). A single
// backend never probes or switches; multiple backends start with a probe
// round in arsenal order.
func New(cfg Config, scfg SelectorConfig, port FillPort, backends ...Backend) *Selector {
	if len(backends) == 0 {
		panic("hwpref: selector needs at least one backend")
	}
	if cfg.Degree < 1 || cfg.BufferLines < 1 {
		panic(fmt.Sprintf("hwpref: degree %d and buffer lines %d must be positive",
			cfg.Degree, cfg.BufferLines))
	}
	if len(backends) > 1 && (scfg.ProbeLoads == 0 || scfg.ExploitFactor == 0) {
		panic("hwpref: multi-backend selector needs positive ProbeLoads and ExploitFactor")
	}
	s := &Selector{
		cfg:       cfg,
		scfg:      scfg,
		port:      port,
		shift:     lineShift(cfg.LineSize),
		scores:    make([]int64, len(backends)),
		residency: make([]uint64, len(backends)),
		scratch:   make([]uint64, 0, cfg.Degree+1),
		boost:     1,
	}
	for _, b := range backends {
		s.engines = append(s.engines, &engine{backend: b})
	}
	if len(backends) > 1 {
		// Startup grace: the first backend (next-line in arsenal order, the
		// cheap default) runs one exploit-length window before the first
		// probe round. Probing from the very first load would score every
		// backend against cold caches — and systematically flatter whichever
		// backend happens to be probed last, after the others warmed the
		// hierarchy up.
		s.epochEnd = scfg.ProbeLoads * scfg.ExploitFactor
	}
	return s
}

// SetTracer attaches the telemetry tracer switch decisions are emitted to.
func (s *Selector) SetTracer(t *telemetry.Tracer) { s.tel = t }

// Train observes a committed load. Implements memsys.Prefetcher. On the
// no-miss path nothing touches the fill port or a buffer (the LoadFast
// contract); epoch boundaries advance on the load count alone, so switch
// points are identical on every execution path.
func (s *Selector) Train(pc, addr uint64, now int64, l1Miss bool) {
	if len(s.engines) > 1 && s.loads == s.epochEnd {
		s.advanceEpoch(now)
	}
	s.loads++
	s.residency[s.active]++
	la := addr >> s.shift
	for i, en := range s.engines {
		cands := en.backend.Observe(s.scratch[:0], pc, addr, la, l1Miss)
		if i == s.active && l1Miss && len(cands) > 0 {
			s.issue(i, cands, now)
		}
	}
}

// Lookup supplies a demand miss from the shared buffer; the follow-on
// proposals go to the active backend (the policy in force decides what to
// run ahead with). Implements memsys.Prefetcher.
func (s *Selector) Lookup(lineAddr uint64, now int64) (int64, bool) {
	ready, ok := s.take(lineAddr)
	if !ok {
		return 0, false
	}
	en := s.engines[s.active]
	if cands := en.backend.OnSupply(s.scratch[:0], lineAddr); len(cands) > 0 {
		s.issue(s.active, cands, now)
	}
	return ready, true
}

// Contains reports (without consuming) whether the shared buffer holds the
// line. Implements memsys.Prefetcher.
func (s *Selector) Contains(lineAddr uint64) bool {
	return s.holds(lineAddr)
}

// advanceEpoch runs at an epoch boundary: score the probed backend and
// start the next probe, crown the round's winner, or begin a new round.
func (s *Selector) advanceEpoch(now int64) {
	if !s.probing {
		// Exploit epoch over: re-probe from the top.
		s.probing = true
		s.beginProbe(0, now)
		return
	}
	// The probe's score is its negated cycle cost: every probe epoch covers
	// exactly ProbeLoads committed loads, so the backend that got through
	// them in the fewest cycles delivered the most throughput. Measuring
	// progress directly (POWER7 measures the same way, via its performance
	// counters) is robust where proxy counters are not: a backend that
	// floods the bus with technically-consumed prefetches scores high on
	// supply counts yet loses the cycle race.
	s.scores[s.probeIdx] = s.markCycle - now
	if s.probeIdx+1 < len(s.engines) {
		s.beginProbe(s.probeIdx+1, now)
		return
	}
	// Round complete: highest score wins, ties break toward the earlier
	// (cheaper) backend in arsenal order.
	win := 0
	for i := 1; i < len(s.scores); i++ {
		if s.scores[i] > s.scores[win] {
			win = i
		}
	}
	// Hysteresis: once a winner is crowned, dethroning it takes a clear
	// win — at least 1/32 less probe cycle cost. Probe epochs are short
	// enough to be noisy, and a wrong switch costs a whole exploit window.
	if s.rounds > 0 && win != s.lastWin {
		inc := s.scores[s.lastWin]
		if s.scores[win]-inc <= (-inc)/32 {
			win = s.lastWin
		}
	}
	s.rounds++
	if s.rounds > 1 && win == s.lastWin {
		if s.boost < maxBoost {
			s.boost *= 2
		}
	} else {
		if s.rounds > 1 {
			s.switches++
		}
		s.boost = 1
	}
	s.lastWin = win
	s.probing = false
	s.epochEnd = s.loads + s.scfg.ProbeLoads*s.scfg.ExploitFactor*s.boost
	s.activate(win, now, true, s.scores[win])
}

// beginProbe activates backend i for one probe epoch.
func (s *Selector) beginProbe(i int, now int64) {
	s.probeIdx = i
	s.markCycle = now
	s.epochEnd = s.loads + s.scfg.ProbeLoads
	s.activate(i, now, false, 0)
}

// activate switches the fill-issuing backend and records the decision. The
// shared buffer carries over — its lines are already fetched and stay
// useful whichever policy issues next — so a switch costs nothing beyond
// the probe itself.
func (s *Selector) activate(i int, now int64, exploit bool, score int64) {
	s.active = i
	if len(s.decisions) < maxDecisions {
		s.decisions = append(s.decisions, Decision{
			Loads: s.loads, Cycle: now, Backend: i, Exploit: exploit, Score: score,
		})
	}
	s.decisionCount++
	mode := int64(0)
	if exploit {
		mode = 1
	}
	s.tel.Emit(telemetry.KindHWPrefSwitch, now, uint64(i), s.loads, score, mode)
}

// Names returns the backends' names in arsenal order.
func (s *Selector) Names() []string {
	names := make([]string, len(s.engines))
	for i, en := range s.engines {
		names[i] = en.backend.Name()
	}
	return names
}

// Active returns the currently issuing backend's index.
func (s *Selector) Active() int { return s.active }

// EngineStatsAt returns backend i's engine counters.
func (s *Selector) EngineStatsAt(i int) EngineStats { return s.engines[i].stats }

// TotalStats sums engine counters across the arsenal.
func (s *Selector) TotalStats() EngineStats {
	var t EngineStats
	for _, en := range s.engines {
		t.Fills += en.stats.Fills
		t.FillsDenied += en.stats.FillsDenied
		t.Supplies += en.stats.Supplies
		t.EvictedUnused += en.stats.EvictedUnused
	}
	return t
}

// Residency returns per-backend active-load counts (same order as Names).
func (s *Selector) Residency() []uint64 {
	out := make([]uint64, len(s.residency))
	copy(out, s.residency)
	return out
}

// Decisions returns the retained decision log (at most maxDecisions; see
// DecisionCount for the true total).
func (s *Selector) Decisions() []Decision {
	out := make([]Decision, len(s.decisions))
	copy(out, s.decisions)
	return out
}

// DecisionCount returns how many decisions have fired in total.
func (s *Selector) DecisionCount() uint64 { return s.decisionCount }

// Rounds returns completed probe rounds; Switches counts rounds whose
// winner differed from the previous round's.
func (s *Selector) Rounds() uint64   { return s.rounds }
func (s *Selector) Switches() uint64 { return s.switches }
