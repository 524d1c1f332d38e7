// Package sampling drives interval-sampled simulation (DESIGN §14, §15):
// the machine alternates detailed intervals — the full three-tier engine
// with every statistic recorded — and functional fast-forward gaps where
// only architectural state advances, with a live warm-up window at each
// gap's tail so caches, stream buffers, the branch predictor, and the DLT
// enter the next detailed interval lived-in. Full-run Results are
// extrapolated from the detailed intervals with per-metric error bars.
//
// Phase detection is Pac-Sim-flavoured rather than blindly periodic: each
// detailed interval produces a signal vector from the telemetry the machine
// already keeps (miss rate, delinquency-event rate, repair-budget burn), and
// a large relative change forces the next interval to stay detailed instead
// of fast-forwarding over the new phase. Tier residency is recorded per
// interval and exported for inspection, but deliberately kept out of the
// trigger: tier attribution is engine-class (it shifts at a restore seam by
// construction), and the trigger must consume only semantic signals so a
// resumed sampled run replays the exact decision sequence.
//
// Execution is window-chained (parallel.go): after the fully detailed
// startup prefix, every detailed window runs on a private machine seeded
// from the startup snapshot, an architectural region-of-interest restore,
// and the deterministic warm-up replay — at any -sample-jobs, including 1.
// Chains are therefore independent of each other by construction, which is
// what lets the Scheduler fan them across a worker pool while producing
// byte-identical estimates, error bars, and trigger decisions at every
// parallelism level.
package sampling

import (
	"fmt"

	"tridentsp/internal/core"
)

// Config shapes the sampling schedule. All instruction counts are in
// original program instructions; the interval grid is anchored at zero, so
// detailed interval k starts at k*Interval regardless of how much phase-
// triggered extra detail ran before it.
type Config struct {
	// Interval is the grid period: one detailed window per Interval
	// instructions of program progress.
	Interval uint64
	// Detailed is the length of each detailed window.
	Detailed uint64
	// Warmup is the length of the warm fast-forward window immediately
	// before each detailed window.
	Warmup uint64
	// PhaseDelta is the relative change in any signal that flags a phase
	// change and forces the next interval detailed (0 = use the default).
	// Negative disables phase detection.
	PhaseDelta float64
	// Startup is a fully detailed prefix, run before any fast-forwarding,
	// so the dynamic optimizer converges at full rate: trace formation,
	// delinquency detection, and self-repair are driven by detailed
	// execution only, and sampling a machine whose optimizer is still
	// maturing would systematically underestimate steady-state numbers.
	// The prefix is recorded as ordinary windows (strata of width one
	// window), so the transient never extrapolates beyond itself.
	Startup uint64
}

// DefaultConfig returns the general-purpose schedule (the CLI's flag
// defaults): the window geometry exp.SampleConfig validated against exact
// runs of all fourteen workloads (several have sub-1M phase oscillation,
// so the grid must stay this dense or alias), and a 50% signal swing to
// trigger extra detail.
func DefaultConfig() Config {
	return Config{
		Interval:   300_000,
		Detailed:   150_000,
		Warmup:     50_000,
		PhaseDelta: 0.5,
		Startup:    1_500_000,
	}
}

// WithDefaults fills zero fields from DefaultConfig.
func (c Config) WithDefaults() Config {
	d := DefaultConfig()
	if c.Interval == 0 {
		c.Interval = d.Interval
	}
	if c.Detailed == 0 {
		c.Detailed = d.Detailed
	}
	if c.Warmup == 0 {
		c.Warmup = d.Warmup
	}
	if c.PhaseDelta == 0 {
		c.PhaseDelta = d.PhaseDelta
	}
	if c.Startup == 0 {
		c.Startup = d.Startup
	}
	return c
}

// Validate rejects schedules that cannot alternate.
func (c Config) Validate() error {
	if c.Interval == 0 || c.Detailed == 0 {
		return fmt.Errorf("sampling: interval and detailed window must be positive")
	}
	if c.Detailed+c.Warmup > c.Interval {
		return fmt.Errorf("sampling: detailed (%d) + warmup (%d) exceed the interval (%d); nothing would be fast-forwarded",
			c.Detailed, c.Warmup, c.Interval)
	}
	return nil
}

// The phase-detection signal vector, per detailed interval. All three are
// semantic (serialized machine state), so resumed runs recompute them
// bit-identically.
const numSignals = 3

// quiesceBound caps the reference-loop steps runWindow takes to drain a
// pending optimization at a window edge: up to the helper thread's
// completion cycle, which a busy helper can put a million steps away.
const quiesceBound = 10_000_000

// sigFloor is the per-signal absolute scale below which relative comparison
// is meaningless; changes smaller than PhaseDelta*floor never trigger.
var sigFloor = [numSignals]float64{
	0.005, // L1 misses per instruction
	1e-5,  // delinquency events per instruction
	0.01,  // helper-active cycles per cycle (repair-budget burn)
}

// runWindow executes one detailed window of up to n instructions on sys's
// full engine and returns the interval record plus the machine's Results at
// the window's end. The machine drains any pending optimization at the
// edge: a patch lands only under detailed execution, so one left pending
// would sit frozen across the following functional gap, where an exact run
// lands it at its completion cycle. Every window edge drains, on the master
// and on every chain, on the reference loop as it always has, so straight,
// resumed, and parallel runs replay identical schedules.
func runWindow(sys *core.System, n uint64) (Interval, core.Results) {
	start := sys.Progress()
	beforeRes := sys.Results()
	before := flatten(&beforeRes)
	tS, tB, tJ := sys.TierInstrs()
	sys.Run(sys.OrigInstrs() + n)
	sys.Quiesce(quiesceBound)
	after := sys.Results()
	tS2, tB2, tJ2 := sys.TierInstrs()
	return Interval{
		Start:     start,
		End:       sys.Progress(),
		Vec:       vecSub(flatten(&after), before),
		TierSlow:  tS2 - tS,
		TierBatch: tB2 - tB,
		TierJIT:   tJ2 - tJ,
	}, after
}

// signals builds the phase vector from one interval's deltas.
func signals(iv *Interval) [numSignals]float64 {
	r := iv.Res()
	var s [numSignals]float64
	if r.OrigInstrs > 0 {
		s[0] = float64(r.MissesTotal) / float64(r.OrigInstrs)
		s[1] = float64(r.DLTEvents) / float64(r.OrigInstrs)
	}
	if r.Cycles > 0 {
		s[2] = float64(r.HelperActiveCycles) / float64(r.Cycles)
	}
	return s
}

// sigChanged reports whether any component moved by more than delta
// relative to its previous value (with a per-signal absolute floor, so
// noise around zero never looks like a phase).
func sigChanged(now, prev [numSignals]float64, delta float64) bool {
	for i := range now {
		ref := prev[i]
		if ref < sigFloor[i] {
			ref = sigFloor[i]
		}
		d := now[i] - prev[i]
		if d < 0 {
			d = -d
		}
		if d > delta*ref {
			return true
		}
	}
	return false
}
