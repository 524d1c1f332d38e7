package chaos

import (
	"fmt"

	"tridentsp/internal/telemetry"
)

// Check is one invariant probe. Fn returns nil while the invariant holds
// and a descriptive error when it is violated. Checks are registered by
// the simulator core (closures over its subsystems), keeping this package
// free of upward dependencies.
type Check struct {
	Name string
	Fn   func(now int64) error
}

// Violation records one failed check.
type Violation struct {
	Check string
	At    int64
	Err   error
}

// String formats the violation for reports.
func (v Violation) String() string {
	return fmt.Sprintf("cycle %d: %s: %v", v.At, v.Check, v.Err)
}

// Monitor is the watchdog that continuously verifies DESIGN §6 invariants
// while faults are being injected. It runs its checks every Every cycles
// (and on demand via RunChecks), accumulating violations instead of
// stopping the run, so a chaotic run reports every broken invariant at
// once.
type Monitor struct {
	// Every is the check period in cycles.
	Every int64

	checks     []Check
	nextAt     int64
	ticks      uint64
	violations []Violation
	tracer     *telemetry.Tracer
}

// NewMonitor creates a watchdog that probes every `every` cycles.
func NewMonitor(every int64) *Monitor {
	if every < 1 {
		every = 1
	}
	return &Monitor{Every: every, nextAt: every}
}

// Register adds an invariant check.
func (m *Monitor) Register(name string, fn func(now int64) error) {
	m.checks = append(m.checks, Check{Name: name, Fn: fn})
}

// NextAt returns the cycle of the next scheduled probe, so the simulation
// loop's hot path is one comparison.
func (m *Monitor) NextAt() int64 { return m.nextAt }

// Tick runs the checks if a probe is due at `now`.
func (m *Monitor) Tick(now int64) {
	if now < m.nextAt {
		return
	}
	// Skip every probe point the clock has passed in one step: a stall of
	// many periods (or a clock restored from a damaged checkpoint) must not
	// cost one iteration per period.
	m.nextAt += ((now-m.nextAt)/m.Every + 1) * m.Every
	m.RunChecks(now)
}

// SetTracer attaches a telemetry tracer; each probe round emits a
// watchdog-probe event. A nil tracer (the default) is free.
func (m *Monitor) SetTracer(tr *telemetry.Tracer) { m.tracer = tr }

// RunChecks probes every registered invariant immediately.
func (m *Monitor) RunChecks(now int64) {
	m.ticks++
	found := 0
	for _, c := range m.checks {
		if err := c.Fn(now); err != nil {
			m.violations = append(m.violations, Violation{Check: c.Name, At: now, Err: err})
			found++
		}
	}
	m.tracer.Emit(telemetry.KindWatchdogProbe, now, 0, 0, int64(found), int64(len(m.violations)))
}

// Ticks counts completed probe rounds.
func (m *Monitor) Ticks() uint64 { return m.ticks }

// Violations returns every recorded invariant violation in order.
func (m *Monitor) Violations() []Violation { return m.violations }
