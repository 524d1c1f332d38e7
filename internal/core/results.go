package core

import (
	"fmt"
	"strings"

	"tridentsp/internal/memsys"
)

// Results summarizes one run; every figure of the paper is computed from
// these fields.
type Results struct {
	Name   string
	Config string

	// Cycles is the final simulation clock; OrigInstrs counts committed
	// instructions of the *original* program (inserted prefetch code and
	// removed redundancies excluded), per §4.1.
	Cycles     int64
	OrigInstrs uint64
	// Committed counts raw committed instructions, including inserted
	// prefetch code.
	Committed uint64

	// Memory behaviour (Figure 6's breakdown lives in Mem.ByOutcome).
	Mem memsys.Stats

	// Branch prediction accuracy.
	BranchAccuracy float64

	// Trident activity (Figures 3 and the §5.1 overhead). TracesBackedOut
	// and PhaseClears count two removed extensions (trace back-out and
	// phase-triggered mature clearing) and are always 0; they stay until
	// perfbench's digest oracle, which hashes every exported field, is
	// re-recorded.
	HelperActiveCycles int64
	HelperInvocations  uint64
	TracesFormed       uint64
	TracesBackedOut    uint64 // always 0 (see above)
	TracesSpecialized  uint64
	PhaseClears        uint64 // always 0 (see above)
	EventsRaised       uint64
	EventsDropped      uint64
	CodeCacheBytes     int
	LiveTraces         int

	// ApplyErrors counts optimizations whose apply step failed (should
	// always be zero; surfaced so misconfigurations are visible).
	ApplyErrors uint64

	// Optimizer activity.
	Insertions       uint64
	Repairs          uint64
	Matured          uint64
	PrefetchesPlaced uint64
	DerefChains      uint64

	// Coverage (Figure 4).
	MissesTotal   uint64
	MissesInTrace uint64
	MissesCovered uint64

	// Stream buffer activity.
	SBSupplies uint64
	SBFills    uint64

	// DLTEvents counts delinquent-load events the table raised; the
	// resilience experiment watches its windowed rate re-converge after
	// faults.
	DLTEvents uint64

	// Aborted is non-empty when Run stopped early (e.g. livelock
	// detection) and names the reason.
	Aborted string

	// Divergence sentinel activity (zero unless Config.SentinelEvery is
	// set). A non-zero SentinelTrips means the fast path was caught
	// diverging, the run rewound to the window start, and the rest
	// executed on the reference loop.
	SentinelChecks uint64
	SentinelTrips  uint64

	// Fault injection (zero without Config.Chaos).
	ChaosFaults         uint64 // fault edges applied
	HelperPreemptions   uint64
	WatchdogProbes      uint64 // invariant check rounds completed
	InvariantViolations uint64
	// FirstViolation describes the earliest violation ("" when none).
	FirstViolation string
}

// IPC returns original instructions per cycle.
func (r Results) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.OrigInstrs) / float64(r.Cycles)
}

// HelperActiveFraction is helper-thread active cycles over total cycles
// (Figure 3).
func (r Results) HelperActiveFraction() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.HelperActiveCycles) / float64(r.Cycles)
}

// TraceMissCoverage is the fraction of L1 misses occurring inside hot
// traces (Figure 4's lower bar segment).
func (r Results) TraceMissCoverage() float64 {
	if r.MissesTotal == 0 {
		return 0
	}
	return float64(r.MissesInTrace) / float64(r.MissesTotal)
}

// PrefetchMissCoverage is the fraction of L1 misses from loads the
// prefetcher targets (Figure 4's upper segment).
func (r Results) PrefetchMissCoverage() float64 {
	if r.MissesTotal == 0 {
		return 0
	}
	return float64(r.MissesCovered) / float64(r.MissesTotal)
}

// Speedup returns this run's IPC relative to a baseline run.
func Speedup(r, baseline Results) float64 {
	b := baseline.IPC()
	if b == 0 {
		return 0
	}
	return r.IPC() / b
}

// String renders a compact human-readable summary.
func (r Results) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s [%s]\n", r.Name, r.Config)
	fmt.Fprintf(&sb, "  cycles=%d orig-instrs=%d IPC=%.4f\n", r.Cycles, r.OrigInstrs, r.IPC())
	fmt.Fprintf(&sb, "  loads=%d misses=%d (in-trace %.1f%%, covered %.1f%%)\n",
		r.Mem.Loads, r.MissesTotal, 100*r.TraceMissCoverage(), 100*r.PrefetchMissCoverage())
	fmt.Fprintf(&sb, "  traces=%d insertions=%d repairs=%d matured=%d helper=%.2f%%\n",
		r.TracesFormed, r.Insertions, r.Repairs, r.Matured, 100*r.HelperActiveFraction())
	if r.ChaosFaults > 0 || r.WatchdogProbes > 0 {
		fmt.Fprintf(&sb, "  chaos: faults=%d preemptions=%d probes=%d violations=%d\n",
			r.ChaosFaults, r.HelperPreemptions, r.WatchdogProbes, r.InvariantViolations)
		if r.FirstViolation != "" {
			fmt.Fprintf(&sb, "  first violation: %s\n", r.FirstViolation)
		}
	}
	if r.SentinelChecks > 0 {
		fmt.Fprintf(&sb, "  sentinel: checks=%d trips=%d\n", r.SentinelChecks, r.SentinelTrips)
	}
	if r.Aborted != "" {
		fmt.Fprintf(&sb, "  ABORTED: %s\n", r.Aborted)
	}
	return sb.String()
}

// results snapshots the system's statistics. It must not touch machine
// state: Run can be re-entered with a larger budget (windowed sampling,
// the golden resume suite), and a resumed run must behave exactly as if it
// had never stopped. Draining the memory hierarchy here, for instance,
// would retire expired in-flight fills early and change later prefetch
// decisions — the golden-trace resume test caught exactly that.
func (s *System) results() Results {
	if s.tel != nil {
		s.snapshotMetrics()
	}
	r := Results{
		Name:          s.pristine.Name,
		Config:        fmt.Sprintf("%s/%s", s.cfg.HW, s.cfg.SW),
		Cycles:        s.thread.Now(),
		OrigInstrs:    s.origInstrs,
		Committed:     s.thread.Committed(),
		Mem:           s.hier.Stats,
		MissesTotal:   s.stats.missesTotal,
		MissesInTrace: s.stats.missesInTrace,
		MissesCovered: s.stats.missesCovered,
	}
	r.BranchAccuracy = s.bp.Accuracy()
	if s.sb != nil {
		r.SBSupplies = s.sb.Stats.Supplies
		r.SBFills = s.sb.Stats.Fills
	}
	if s.hwp != nil {
		// The arsenal reports through the same fields: supplies and fills
		// mean the same thing whichever hardware prefetcher ran.
		t := s.hwp.TotalStats()
		r.SBSupplies = t.Supplies
		r.SBFills = t.Fills
	}
	if s.cfg.Trident {
		r.HelperActiveCycles = s.helper.ActiveCycles
		r.HelperInvocations = s.helper.Invocations
		r.TracesFormed = s.stats.tracesFormed
		r.TracesSpecialized = s.stats.tracesSpecialized
		r.EventsRaised = s.queue.Raised
		r.EventsDropped = s.queue.Dropped
		r.CodeCacheBytes = s.cache.Size()
		r.LiveTraces = s.cache.LiveTraces()
		r.ApplyErrors = s.stats.applyErrors
	}
	if s.opt != nil {
		r.Insertions = s.opt.Stats.Insertions
		r.Repairs = s.opt.Stats.Repairs
		r.Matured = s.opt.Stats.Matured
		r.PrefetchesPlaced = s.opt.Stats.PrefetchesPlaced
		r.DerefChains = s.opt.Stats.DerefChainsPlaced
	}
	if s.table != nil {
		r.DLTEvents = s.table.Events
	}
	if s.helper != nil {
		r.HelperPreemptions = s.helper.Preemptions
	}
	r.Aborted = s.aborted
	r.SentinelChecks = s.stats.sentinelChecks
	r.SentinelTrips = s.stats.sentinelTrips
	if s.chaosRun != nil {
		r.ChaosFaults = s.chaosRun.Applied
	}
	if s.monitor != nil {
		r.WatchdogProbes = s.monitor.Ticks()
		vs := s.monitor.Violations()
		r.InvariantViolations = uint64(len(vs))
		if len(vs) > 0 {
			r.FirstViolation = vs[0].String()
		}
	}
	return r
}
