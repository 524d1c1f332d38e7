package hwpref

import (
	"reflect"
	"testing"

	"tridentsp/internal/checkpoint"
	"tridentsp/internal/telemetry"
)

// Selector epoch-machinery tests. The probe score is the negated cycle cost
// of a fixed load quota, and the test owns the clock, so each backend's
// "speed" is scripted directly: advance the clock slowly during a probe to
// make that backend win, quickly to make it lose. The backends themselves
// are inert stubs — these tests are about when the selector switches, not
// what it prefetches.

// stubBackend proposes nothing; only its identity matters.
type stubBackend struct{ id string }

func (b *stubBackend) Name() string { return b.id }
func (b *stubBackend) Observe(dst []uint64, pc, addr, lineAddr uint64) []uint64 {
	return dst
}
func (b *stubBackend) OnSupply(dst []uint64, lineAddr uint64) []uint64 { return dst }
func (b *stubBackend) checkpoint(c *checkpoint.Codec)                  { c.Mark("hwpref.stub") }

// clockRig drives committed loads at a scripted cycles-per-load rate. Its
// tracer records the selector's decisions as hwpref-switch events.
type clockRig struct {
	s   *Selector
	tr  *telemetry.Tracer
	now int64
}

func newRig(scfg SelectorConfig, n int) *clockRig {
	backends := make([]Backend, n)
	for i := range backends {
		backends[i] = &stubBackend{id: string(rune('a' + i))}
	}
	r := &clockRig{s: New(DefaultConfig(), scfg, &testPort{latency: 1}, backends...),
		tr: telemetry.New(telemetry.Options{})}
	r.s.SetTracer(r.tr)
	return r
}

// decision is one hwpref-switch event, decoded: the activated backend, the
// committed loads observed, the cycle, and whether it crowned an exploit
// winner (false: a probe activation).
type decision struct {
	backend int
	loads   uint64
	cycle   int64
	exploit bool
}

// decisions decodes the tracer's hwpref-switch events, oldest first.
func decisions(tr *telemetry.Tracer) []decision {
	var out []decision
	for _, e := range tr.Events() {
		if e.Kind == telemetry.KindHWPrefSwitch {
			out = append(out, decision{int(e.PC), e.Aux, e.Cycle, e.Arg2 == 1})
		}
	}
	return out
}

func (r *clockRig) loads(n int, cyclesPerLoad int64) {
	for i := 0; i < n; i++ {
		r.s.Train(0x1, 0, r.now, false)
		r.now += cyclesPerLoad
	}
}

// kinds compresses a decision log for comparison: backend index, probe (p)
// or exploit (x).
func kinds(ds []decision) []string {
	out := make([]string, len(ds))
	for i, d := range ds {
		m := "p"
		if d.exploit {
			m = "x"
		}
		out[i] = string(rune('0'+d.backend)) + m
	}
	return out
}

// TestSelectorCrownsFastestBackend: with ProbeLoads 10 and ExploitFactor 2,
// the startup grace runs backend 0 for 20 loads, then each probe covers 10
// loads. The backend probed at 1 cycle/load beats the one probed at 5, and
// when the speeds flip at the next round, so does the crown.
func TestSelectorCrownsFastestBackend(t *testing.T) {
	r := newRig(SelectorConfig{ProbeLoads: 10, ExploitFactor: 2}, 2)
	r.loads(20, 1) // startup grace: backend 0, no decision yet
	if got := r.s.DecisionCount(); got != 0 {
		t.Fatalf("decisions during grace = %d, want 0", got)
	}
	r.loads(10, 1) // probe 0: cost 10
	r.loads(10, 5) // probe 1: cost 50
	r.loads(20, 1) // exploit: winner 0
	r.loads(10, 5) // probe 0: cost 50
	r.loads(10, 1) // probe 1: cost 10
	r.loads(1, 1)  // cross the boundary: crown the new winner
	want := []string{"0p", "1p", "0x", "0p", "1p", "1x"}
	if got := kinds(decisions(r.tr)); !reflect.DeepEqual(got, want) {
		t.Fatalf("decision log = %v, want %v", got, want)
	}
	if r.s.active != 1 || r.s.Rounds() != 2 || r.s.Switches() != 1 {
		t.Fatalf("active=%d rounds=%d switches=%d, want 1/2/1",
			r.s.active, r.s.Rounds(), r.s.Switches())
	}
}

// TestSelectorHysteresis: a challenger that beats the incumbent by under
// 1/32 of the incumbent's probe cost does not dethrone it — short probes are
// noisy and a wrong switch costs a whole exploit window.
func TestSelectorHysteresis(t *testing.T) {
	r := newRig(SelectorConfig{ProbeLoads: 10, ExploitFactor: 2}, 2)
	r.loads(20, 1)  // grace
	r.loads(10, 1)  // probe 0: cost 10
	r.loads(10, 5)  // probe 1: cost 50 -> round 1 crowns 0
	r.loads(20, 1)  // exploit 0
	r.loads(10, 10) // probe 0: cost 100
	// Probe 1 at cost 98: better by 2, but the bar is 100/32 = 3.
	r.loads(9, 10)
	r.loads(1, 8)
	r.loads(1, 1) // boundary: incumbent retained
	if r.s.active != 0 || r.s.Switches() != 0 {
		t.Fatalf("active=%d switches=%d after marginal challenge, want incumbent 0 with 0 switches",
			r.s.active, r.s.Switches())
	}
	// A clear win (cost 10 vs 100) does flip it.
	r.loads(39, 1) // finish exploit (40 loads total at the boundary crossing)
	r.loads(10, 10)
	r.loads(10, 1)
	r.loads(1, 1)
	if r.s.active != 1 || r.s.Switches() != 1 {
		t.Fatalf("active=%d switches=%d after clear challenge, want 1/1",
			r.s.active, r.s.Switches())
	}
}

// TestSelectorExploitBoost: consecutive wins double the exploit window up to
// maxBoost; a winner change snaps it back to the base length. Measured via
// the load distance between an exploit decision and the next probe decision.
func TestSelectorExploitBoost(t *testing.T) {
	scfg := SelectorConfig{ProbeLoads: 10, ExploitFactor: 2}
	r := newRig(scfg, 2)
	r.loads(20, 1) // grace
	// Backend 0 wins every round; drive enough loads for several rounds.
	// Each round: probe 0 at 1 c/l, probe 1 at 5 c/l, then the exploit
	// window (whatever length the boost set).
	for round := 0; round < 5; round++ {
		r.loads(10, 1)
		r.loads(10, 5)
		// Run loads until the next probe decision fires (exploit over).
		for last := decisions(r.tr); ; {
			r.loads(1, 1)
			ds := decisions(r.tr)
			if len(ds) > len(last) && !ds[len(ds)-1].exploit && ds[len(ds)-1].backend == 0 {
				break
			}
		}
	}
	ds := decisions(r.tr)
	// Collect exploit-window lengths: loads between each exploit decision
	// and the following probe decision.
	var spans []uint64
	for i := 0; i+1 < len(ds); i++ {
		if ds[i].exploit {
			spans = append(spans, ds[i+1].loads-ds[i].loads)
		}
	}
	base := scfg.ProbeLoads * scfg.ExploitFactor
	want := []uint64{base, 2 * base, 4 * base, 8 * base, 16 * base}
	if !reflect.DeepEqual(spans, want) {
		t.Fatalf("exploit spans = %v, want doubling %v", spans, want)
	}
	if r.s.Switches() != 0 {
		t.Fatalf("switches = %d, want 0 for a stable winner", r.s.Switches())
	}
}

// TestSelectorSingleBackendInert: one backend never probes, never decides,
// and ignores a zero SelectorConfig.
func TestSelectorSingleBackendInert(t *testing.T) {
	r := &clockRig{s: New(DefaultConfig(), SelectorConfig{}, &testPort{latency: 1},
		&stubBackend{id: "only"})}
	r.loads(5000, 1)
	if r.s.DecisionCount() != 0 || r.s.Rounds() != 0 || r.s.active != 0 {
		t.Fatalf("single-backend selector moved: decisions=%d rounds=%d active=%d",
			r.s.DecisionCount(), r.s.Rounds(), r.s.active)
	}
}

// TestSelectorResidencyAccounting: residency sums to the total load count
// and every backend gets probed.
func TestSelectorResidencyAccounting(t *testing.T) {
	r := newRig(SelectorConfig{ProbeLoads: 10, ExploitFactor: 2}, 4)
	r.loads(500, 1)
	res := r.s.Residency()
	var sum uint64
	for i, v := range res {
		sum += v
		if v == 0 {
			t.Errorf("backend %d never active", i)
		}
	}
	if sum != 500 {
		t.Fatalf("residency sums to %d, want 500", sum)
	}
}
