package core

import (
	"testing"

	"tridentsp/internal/telemetry"
)

// TestRepairLifecycleNarration runs the canonical delinquent stride loop
// with telemetry on and checks that the recorded event stream narrates the
// self-repair lifecycle coherently: every load's history starts with an
// insert (or an immediate write-off), every repair moves the distance by
// exactly ±1 from the previously narrated value, matures report the
// distance the chain arrived at, and nothing repairs a written-off load.
// The stream's totals must agree with the run's Results — the same
// counters the exp tables render — and the final narrated distance must
// match the optimizer's live Distance query.
func TestRepairLifecycleNarration(t *testing.T) {
	p := strideWorkload(131072, 64, 4)
	cfg := DefaultConfig()
	cfg.HW = HWNone
	cfg.Telemetry = &telemetry.Options{}
	sys := NewSystem(cfg, p)
	res := sys.Run(3_000_000)

	type key struct{ head, load uint64 }
	type chain struct {
		dist    int64 // last narrated distance
		strided bool  // a non-zero distance was ever narrated
		mature  bool
		inserts int
		repairs int
	}
	chains := make(map[key]*chain)
	var inserts, repairs uint64
	for _, e := range events(t, sys) {
		k := key{head: e.Aux, load: e.PC}
		c := chains[k]
		switch e.Kind {
		case telemetry.KindPrefetchInsert:
			inserts++
			if c == nil {
				c = &chain{}
				chains[k] = c
			}
			c.dist = e.Arg
			c.strided = c.strided || e.Arg != 0
			c.mature = false
			c.inserts++
		case telemetry.KindPrefetchRepair:
			repairs++
			if c == nil {
				t.Fatalf("repair for %#x/%#x before any insert", k.head, k.load)
			}
			if c.mature {
				t.Fatalf("repair for %#x/%#x after it matured", k.head, k.load)
			}
			if e.Arg2 != c.dist {
				t.Fatalf("repair chain for %#x/%#x broken: repairs %d->%d but last narrated distance was %d",
					k.head, k.load, e.Arg2, e.Arg, c.dist)
			}
			if step := e.Arg - e.Arg2; step != 1 && step != -1 {
				t.Fatalf("repair step for %#x/%#x is %+d, want ±1", k.head, k.load, step)
			}
			c.dist = e.Arg
			c.strided = true
			c.repairs++
		case telemetry.KindPrefetchMature:
			if c == nil {
				// Written off before any prefetch was placed: the only
				// legal narration is a distance-less mature.
				if e.Arg != 0 {
					t.Fatalf("mature for %#x/%#x with distance %d but no prior insert",
						k.head, k.load, e.Arg)
				}
				chains[k] = &chain{mature: true}
				continue
			}
			if want := c.dist; c.strided && e.Arg != want {
				t.Fatalf("mature for %#x/%#x reports distance %d, narration arrived at %d",
					k.head, k.load, e.Arg, want)
			}
			c.mature = true
		}
	}

	// The stream's totals are the same counters the exp tables print from
	// Results; a narration that disagreed with the table would be lying.
	if inserts != res.Insertions {
		t.Errorf("narrated %d inserts, Results counted %d", inserts, res.Insertions)
	}
	if repairs != res.Repairs {
		t.Errorf("narrated %d repairs, Results counted %d", repairs, res.Repairs)
	}
	if repairs == 0 {
		t.Fatal("stride workload narrated no repairs; lifecycle never exercised")
	}

	// The chain with the most repairs is the scripted delinquent load; its
	// final narrated distance must match the optimizer's live state.
	var bestKey key
	best := -1
	for k, c := range chains {
		if c.repairs > best {
			best, bestKey = c.repairs, k
		}
	}
	if best < 1 {
		t.Fatal("no chain recorded an insert → repair lifecycle")
	}
	c := chains[bestKey]
	if got := sys.Optimizer().Distance(bestKey.head, bestKey.load); got != c.dist {
		t.Errorf("optimizer distance for %#x/%#x is %d, narration arrived at %d",
			bestKey.head, bestKey.load, got, c.dist)
	}
}

// events returns the run's semantic stream, failing on ring overflow (a
// truncated narration would make the chain checks vacuous).
func events(t *testing.T, sys *System) []telemetry.Event {
	t.Helper()
	if n := sys.Telemetry().Dropped(); n != 0 {
		t.Fatalf("semantic ring dropped %d events; raise RingCap", n)
	}
	return sys.Telemetry().Events()
}
