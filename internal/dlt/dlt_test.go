package dlt

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"tridentsp/internal/checkpoint"
)

func smallConfig() Config {
	return Config{
		Entries:          8,
		Assoc:            2,
		WindowSize:       16,
		MissThreshold:    4,
		LatencyThreshold: 17,
	}
}

// fillWindow drives pc through one full window with the given number of
// misses at the given latency, returning whether an event fired.
func fillWindow(t *Table, pc uint64, misses int, lat int64) bool {
	fired := false
	w := int(t.Config().WindowSize)
	for i := 0; i < w; i++ {
		miss := i < misses
		var l int64
		if miss {
			l = lat
		}
		if t.UpdateAt(pc, uint64(i*64), miss, l, 0) {
			fired = true
		}
	}
	return fired
}

func TestDelinquentEventFires(t *testing.T) {
	tb := New(smallConfig())
	if !fillWindow(tb, 0x100, 6, 300) {
		t.Fatal("high-miss high-latency load did not fire")
	}
	if tb.Events != 1 {
		t.Fatalf("events = %d", tb.Events)
	}
}

func TestNoEventBelowMissThreshold(t *testing.T) {
	tb := New(smallConfig())
	if fillWindow(tb, 0x100, 2, 300) {
		t.Fatal("load below miss threshold fired")
	}
}

func TestNoEventBelowLatencyThreshold(t *testing.T) {
	tb := New(smallConfig())
	// Plenty of misses but all cheap (L2 hits): not delinquent.
	if fillWindow(tb, 0x100, 8, 11) {
		t.Fatal("low-latency misses fired an event")
	}
}

func TestWindowResetsWhenNotDelinquent(t *testing.T) {
	tb := New(smallConfig())
	fillWindow(tb, 0x100, 0, 0)
	e, ok := tb.Lookup(0x100)
	if !ok {
		t.Fatal("entry missing")
	}
	if e.Access != 0 || e.Miss != 0 || e.MissLatency != 0 {
		t.Fatalf("window not reset: %+v", e)
	}
}

func TestCountersFreezeAfterEventUntilCleared(t *testing.T) {
	tb := New(smallConfig())
	fillWindow(tb, 0x100, 6, 300)
	e, _ := tb.Lookup(0x100)
	frozenAccess := e.Access
	// Further updates must not change the frozen counters.
	tb.UpdateAt(0x100, 0x5000, true, 300, 0)
	e, _ = tb.Lookup(0x100)
	if e.Access != frozenAccess {
		t.Fatal("counters changed while frozen")
	}
	tb.ClearCounters(0x100)
	e, _ = tb.Lookup(0x100)
	if e.Access != 0 || e.Miss != 0 {
		t.Fatal("ClearCounters did not reset")
	}
	// Monitoring resumes: another bad window fires again.
	if !fillWindow(tb, 0x100, 6, 300) {
		t.Fatal("no event after ClearCounters")
	}
}

func TestMatureSuppressesEvents(t *testing.T) {
	tb := New(smallConfig())
	fillWindow(tb, 0x100, 6, 300)
	tb.SetMature(0x100)
	for i := 0; i < 5; i++ {
		if fillWindow(tb, 0x100, 8, 300) {
			t.Fatal("mature load fired an event")
		}
	}
	if tb.IsDelinquent(0x100) {
		t.Fatal("mature load reported delinquent")
	}
}

func TestMatureClearedOnEviction(t *testing.T) {
	cfg := smallConfig()
	cfg.Entries = 2 // 1 set of 2 ways
	cfg.Assoc = 2
	tb := New(cfg)
	fillWindow(tb, 0x100, 6, 300)
	tb.SetMature(0x100)
	// Evict 0x100 by touching two other PCs in the same (only) set.
	tb.UpdateAt(0x200, 0, false, 0, 0)
	tb.UpdateAt(0x300, 0, false, 0, 0)
	if _, ok := tb.Lookup(0x100); ok {
		t.Fatal("entry not evicted")
	}
	// Re-allocated entry is fresh: it can fire again.
	if !fillWindow(tb, 0x100, 6, 300) {
		t.Fatal("re-allocated load cannot fire")
	}
}

func TestStridePredictor(t *testing.T) {
	tb := New(smallConfig())
	addr := uint64(0x1000)
	// Constant stride 64: confidence saturates after 16 matching strides.
	for i := 0; i < 20; i++ {
		tb.UpdateAt(0x100, addr, false, 0, 0)
		addr += 64
	}
	e, _ := tb.Lookup(0x100)
	if !e.StridePredictable() {
		t.Fatalf("constant stride not predictable: conf=%d", e.Confidence)
	}
	if e.Stride != 64 {
		t.Fatalf("stride = %d", e.Stride)
	}
	// One irregular access knocks confidence down by 7.
	tb.UpdateAt(0x100, addr+9999, false, 0, 0)
	e, _ = tb.Lookup(0x100)
	if e.StridePredictable() {
		t.Fatal("confidence survived a mismatch")
	}
	if e.Confidence != StrideConfidenceMax-strideMissPenalty {
		t.Fatalf("confidence = %d, want %d", e.Confidence, StrideConfidenceMax-strideMissPenalty)
	}
}

func TestStrideConfidenceNeverUnderflows(t *testing.T) {
	tb := New(smallConfig())
	addrs := []uint64{0, 100, 7, 9000, 13, 77, 0x8000}
	for _, a := range addrs {
		tb.UpdateAt(0x100, a, false, 0, 0)
	}
	e, _ := tb.Lookup(0x100)
	if e.Confidence > StrideConfidenceMax {
		t.Fatalf("confidence out of range: %d", e.Confidence)
	}
}

func TestStrideConfidenceBoundsProperty(t *testing.T) {
	f := func(deltas []int16) bool {
		tb := New(smallConfig())
		addr := uint64(1 << 20)
		for _, d := range deltas {
			tb.UpdateAt(0x100, addr, false, 0, 0)
			addr += uint64(int64(d))
		}
		e, ok := tb.Lookup(0x100)
		return !ok || e.Confidence <= StrideConfidenceMax
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestIsDelinquentPartialWindow(t *testing.T) {
	tb := New(smallConfig())
	// Half a window (8 of 16) with proportional misses (2 of 4 threshold)
	// and high latency: partial-window check should fire.
	for i := 0; i < 8; i++ {
		miss := i < 3
		var l int64
		if miss {
			l = 300
		}
		tb.UpdateAt(0x100, uint64(i*64), miss, l, 0)
	}
	if !tb.IsDelinquent(0x100) {
		t.Fatal("proportional partial window not delinquent")
	}
	// A load with almost no history is not judged.
	tb.UpdateAt(0x200, 0, true, 300, 0)
	if tb.IsDelinquent(0x200) {
		t.Fatal("judged with < quarter window of history")
	}
	if tb.IsDelinquent(0x999) {
		t.Fatal("unknown PC delinquent")
	}
}

func TestLRUWithinSet(t *testing.T) {
	cfg := smallConfig()
	cfg.Entries = 2
	cfg.Assoc = 2
	tb := New(cfg)
	tb.UpdateAt(0x100, 0, false, 0, 0)
	tb.UpdateAt(0x200, 0, false, 0, 0)
	tb.UpdateAt(0x100, 64, false, 0, 0) // refresh 0x100; LRU = 0x200
	tb.UpdateAt(0x300, 0, false, 0, 0)  // evicts 0x200
	if _, ok := tb.Lookup(0x200); ok {
		t.Fatal("LRU entry survived")
	}
	if _, ok := tb.Lookup(0x100); !ok {
		t.Fatal("MRU entry evicted")
	}
	if tb.Evictions != 1 {
		t.Fatalf("evictions = %d", tb.Evictions)
	}
}

func TestAvgLatencies(t *testing.T) {
	e := &Entry{Access: 10, Miss: 2, MissLatency: 700}
	if e.AvgMissLatency() != 350 {
		t.Fatalf("avg miss = %d", e.AvgMissLatency())
	}
	// 8 hits at 3 + 700 = 724 over 10 accesses.
	if got := e.AvgAccessLatency(3); got != 72 {
		t.Fatalf("avg access = %d", got)
	}
	empty := &Entry{}
	if empty.AvgMissLatency() != 0 || empty.AvgAccessLatency(3) != 3 {
		t.Fatal("empty entry latency defaults")
	}
}

func TestDefaultConfigMatchesTable2(t *testing.T) {
	c := DefaultConfig()
	if c.Entries != 1024 || c.Assoc != 2 || c.WindowSize != 256 || c.MissThreshold != 8 {
		t.Fatalf("default config %+v", c)
	}
}

// TestOddSetCount: a set count that is not a power of two indexes by %
// (the mask path would leave sets unused), and the squeeze still reads the
// built associativity from the shared backing array.
func TestOddSetCount(t *testing.T) {
	cfg := smallConfig()
	cfg.Entries, cfg.Assoc = 6, 2 // 3 sets
	tb := New(cfg)
	for pc := uint64(0); pc < 6; pc++ {
		tb.UpdateAt(pc<<3, 0, false, 0, 0)
	}
	if tb.Len() != 6 || tb.Evictions != 0 {
		t.Fatalf("6 PCs over 3 sets of 2: len %d, evictions %d", tb.Len(), tb.Evictions)
	}
	tb.SetAssocLimit(1)
	tb.SetAssocLimit(8)
	if got := tb.Config().Assoc; got != 2 {
		t.Fatalf("lifted squeeze gives associativity %d, want the built 2", got)
	}
	if tb.Len() != 3 || tb.CheckInvariants() != nil {
		t.Fatalf("after squeeze: len %d, invariants %v", tb.Len(), tb.CheckInvariants())
	}
}

// encodeTable writes a DLT checkpoint by hand: effective associativity, then
// per set the PCs of its entries in recency order.
func encodeTable(assoc int, sets [][]uint64) []byte {
	e := checkpoint.NewSaver()
	e.Mark("dlt")
	e.Int(&assoc)
	e.Len(len(sets))
	for _, set := range sets {
		e.Len(len(set))
		for _, pc := range set {
			e.U64(&pc)
			e.U32(new(uint32))
			e.U32(new(uint32))
			e.I64(new(int64))
			e.U64(new(uint64))
			e.I64(new(int64))
			e.U8(new(uint8))
			e.Bool(new(bool))
			e.Bool(new(bool))
			e.Bool(new(bool))
			valid := true
			e.Bool(&valid)
		}
	}
	e.U64(new(uint64))
	e.U64(new(uint64))
	return e.Bytes()
}

// TestLoadStateRejectsImpossibleSets: a set holding more entries than the
// restored associativity, or an associativity outside 1..built ways, is
// ErrCorrupt rather than a set silently grown past its ways.
func TestLoadStateRejectsImpossibleSets(t *testing.T) {
	for _, tc := range []struct {
		name  string
		assoc int
		sets  [][]uint64
		want  string
	}{
		{"set past squeezed ways", 1, [][]uint64{{}, {0x08, 0x28}, {}, {}}, "set 1 holds 2 entries, associativity 1"},
		{"set past built ways", 2, [][]uint64{{0x00, 0x20, 0x40}, {}, {}, {}}, "set 0 holds 3 entries, associativity 2"},
		{"assoc above built", 3, [][]uint64{{}, {}, {}, {}}, "associativity 3, built with 2 ways"},
		{"assoc zero", 0, [][]uint64{{}, {}, {}, {}}, "associativity 0, built with 2 ways"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := checkpoint.NewLoader(encodeTable(tc.assoc, tc.sets))
			New(smallConfig()).Checkpoint(d)
			err := d.Err()
			if !errors.Is(err, checkpoint.ErrCorrupt) || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("LoadState = %v, want ErrCorrupt naming %q", err, tc.want)
			}
		})
	}
}
