package memsys

import (
	"math/rand"
	"testing"
)

// These tests pin the fast-path entry points (LoadFast, StoreFast) against
// the reference operations they short-circuit. The batch engine in
// internal/core relies on each of these contracts for its bit-identical
// differential guarantee.

// TestStoreRetiresCompletedFills is the regression test for the Store sweep:
// at MSHR capacity a store must retire completed fills exactly as a load at
// the same cycle would, so a store-heavy phase cannot pin expired fills in
// the tracker and starve prefetch issue through a full MSHR. Below capacity
// the sweep is deliberately a no-op (the gate that makes StoreFast's short
// circuit exact), which the second half pins.
func TestStoreRetiresCompletedFills(t *testing.T) {
	cfg := smallConfig()
	h := New(cfg)
	for i := 0; i < cfg.MaxInFlight; i++ {
		h.Prefetch(uint64(0x20000+i*cfg.LineSize), 0)
	}
	if h.InFlight() != cfg.MaxInFlight {
		t.Fatalf("setup: inflight = %d, want %d", h.InFlight(), cfg.MaxInFlight)
	}
	// Store long after every fill completed: the capacity sweep must run and
	// retire all of them, even though the store itself never allocates.
	h.Store(0x9000, 10*cfg.MemLatency)
	if h.InFlight() != 0 {
		t.Fatalf("store did not sweep at capacity: inflight = %d, want 0", h.InFlight())
	}

	// Below capacity the sweep is gated off: an expired fill stays until a
	// capacity event or Drain retires it — for Store and StoreFast alike,
	// which is what keeps the two paths bit-identical.
	r := h.Load(1, 0xf0000, 10*cfg.MemLatency)
	h.Store(0x9000, 10*cfg.MemLatency+r.Latency+1)
	if h.InFlight() != 1 {
		t.Fatalf("below-capacity store swept: inflight = %d, want 1", h.InFlight())
	}
	if !h.StoreFast(0x9000, 10*cfg.MemLatency+r.Latency+2) {
		t.Fatal("StoreFast declined below capacity")
	}
	if h.InFlight() != 1 {
		t.Fatalf("StoreFast touched the MSHR: inflight = %d, want 1", h.InFlight())
	}
}

// TestStoreFastDeclinesAtCapacity checks StoreFast's only decline condition:
// at MSHR capacity Store's sweep is no longer provably a no-op, so the short
// circuit must refuse and leave the hierarchy untouched.
func TestStoreFastDeclinesAtCapacity(t *testing.T) {
	cfg := smallConfig()
	h := New(cfg)
	for i := 0; i < cfg.MaxInFlight; i++ {
		h.Prefetch(uint64(0x20000+i*cfg.LineSize), 0)
	}
	if h.CanStoreFast() {
		t.Fatal("CanStoreFast at MSHR capacity")
	}
	stores := h.Stats.Stores
	if h.StoreFast(0x9000, 1) {
		t.Fatal("StoreFast committed at MSHR capacity")
	}
	if h.Stats.Stores != stores {
		t.Fatal("declined StoreFast bumped the store counter")
	}
	// The slow path sweeps the expired prefetches and capacity returns.
	h.Store(0x9000, 10*cfg.MemLatency)
	if !h.CanStoreFast() {
		t.Fatal("capacity not restored after Store's sweep")
	}
	if !h.StoreFast(0x9040, 10*cfg.MemLatency) {
		t.Fatal("StoreFast declined below capacity")
	}
}

// TestFastSlowMemDifferential drives two hierarchies through the same
// randomized load/store/prefetch mix — one through the fast entry points
// with slow-path fallback, one through the reference operations only — and
// requires bit-identical Stats and per-access Results. This is the memsys
// half of the core differential suite, minus the CPU.
func TestFastSlowMemDifferential(t *testing.T) {
	cfg := smallConfig()
	hF, hS := New(cfg), New(cfg)
	rng := rand.New(rand.NewSource(42))
	now := int64(0)
	line := int64(cfg.LineSize)
	cold := uint64(1 << 20)

	for i := 0; i < 20000; i++ {
		var addr uint64
		switch rng.Intn(3) {
		case 0: // hot set: mostly L1 hits
			addr = 0x4000 + uint64(rng.Int63n(8*line))
		case 1: // warm region: L2/L3 hits and partial hits
			addr = 0x40000 + uint64(rng.Int63n(64*line))
		default: // cold stream: fresh misses
			cold += uint64(line)
			addr = cold
		}
		switch op := rng.Intn(10); {
		case op < 6:
			rF, ok := hF.LoadFast(1, addr, now)
			if !ok {
				rF = hF.Load(1, addr, now)
			}
			rS := hS.Load(1, addr, now)
			if rF != rS {
				t.Fatalf("access %d addr %#x now %d: fast %+v, slow %+v", i, addr, now, rF, rS)
			}
		case op < 9:
			if !hF.StoreFast(addr, now) {
				hF.Store(addr, now)
			}
			hS.Store(addr, now)
		default:
			hF.Prefetch(addr, now)
			hS.Prefetch(addr, now)
		}
		now += rng.Int63n(7)
		if rng.Intn(200) == 0 {
			now += cfg.MemLatency // let fills land
		}
	}
	if hF.Stats != hS.Stats {
		t.Fatalf("Stats diverged\nfast: %+v\nslow: %+v", hF.Stats, hS.Stats)
	}
	if hF.InFlight() != hS.InFlight() {
		t.Fatalf("in-flight diverged: fast %d, slow %d", hF.InFlight(), hS.InFlight())
	}
}
