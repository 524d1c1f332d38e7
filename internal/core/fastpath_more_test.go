package core

import (
	"testing"

	"tridentsp/internal/isa"
	"tridentsp/internal/memsys"
	"tridentsp/internal/trident"
	"tridentsp/internal/workloads"
)

// TestFastPathDLTSampleSequence runs a miss-heavy workload on both paths and
// requires the delinquent load table to end in the same state entry by
// entry. The DLT digests the exact sample sequence it was fed — window
// counters, accumulated miss latency, stride-predictor state, and the event
// count — so any fast-path reordering, duplication, or loss of a single
// in-trace load sample diverges some field. The run is windowed so every
// resume crosses a batch boundary: an L1 miss mid-superblock retires as the
// batch's last instruction (pinned instruction-exactly by the cpu-level
// superblock tests), and its hook must feed the table the very same
// (addr, miss, latency) sample step() would.
func TestFastPathDLTSampleSequence(t *testing.T) {
	bm, ok := workloads.ByName("mcf")
	if !ok {
		t.Fatal("unknown benchmark mcf")
	}
	progF := bm.Build(workloads.ScaleSmall)
	progS := bm.Build(workloads.ScaleSmall)
	fast := DefaultConfig()
	slow := DefaultConfig()
	slow.DisableFastPath = true
	sysF := NewSystem(fast, progF)
	sysS := NewSystem(slow, progS)
	for target := uint64(50_000); target <= 250_000; target += 50_000 {
		sysF.Run(target)
		sysS.Run(target)
	}

	tF, tS := sysF.table, sysS.table
	// Non-vacuity: the run must actually have exercised the machinery under
	// test — monitored in-trace loads, L1 misses (each one ends its batch
	// on the fast path), and at least one delinquent event.
	if sysF.stats.loadsInTrace == 0 {
		t.Fatal("no in-trace loads monitored; DLT comparison is vacuous")
	}
	if sysF.hier.Stats.ByOutcome[memsys.Miss] == 0 {
		t.Fatal("no L1 misses; no batch ever ended on a miss")
	}
	if tF.Events == 0 {
		t.Fatal("no delinquent events; window thresholds never crossed")
	}

	if tF.Events != tS.Events || tF.Evictions != tS.Evictions || tF.Len() != tS.Len() {
		t.Fatalf("table shape diverged: events %d/%d, evictions %d/%d, len %d/%d",
			tF.Events, tS.Events, tF.Evictions, tS.Evictions, tF.Len(), tS.Len())
	}
	for pc := progF.Base; pc < progF.CodeEnd(); pc += isa.WordSize {
		eF, okF := tF.Lookup(pc)
		eS, okS := tS.Lookup(pc)
		if okF != okS {
			t.Errorf("pc %#x: tracked fast=%v slow=%v", pc, okF, okS)
			continue
		}
		if !okF {
			continue
		}
		if eF.Access != eS.Access || eF.Miss != eS.Miss || eF.MissLatency != eS.MissLatency {
			t.Errorf("pc %#x: window counters diverged: fast {%d %d %d}, slow {%d %d %d}",
				pc, eF.Access, eF.Miss, eF.MissLatency, eS.Access, eS.Miss, eS.MissLatency)
		}
		if eF.LastAddr != eS.LastAddr || eF.Stride != eS.Stride || eF.Confidence != eS.Confidence {
			t.Errorf("pc %#x: stride predictor diverged: fast {%#x %d %d}, slow {%#x %d %d}",
				pc, eF.LastAddr, eF.Stride, eF.Confidence, eS.LastAddr, eS.Stride, eS.Confidence)
		}
		if eF.Mature != eS.Mature {
			t.Errorf("pc %#x: mature flag diverged: fast %v, slow %v", pc, eF.Mature, eS.Mature)
		}
	}
}

// TestFastPathPatchImmHotLoop is the self-repair interaction with batching:
// a prefetch-distance rewrite (PatchImm) landing in a hot loop that the
// superblock engine is batching must take effect on the very next iteration.
// The code cache invalidates block descriptors on patch; a stale descriptor
// would keep issuing prefetches at the old distance forever.
func TestFastPathPatchImmHotLoop(t *testing.T) {
	bm, ok := workloads.ByName("swim")
	if !ok {
		t.Fatal("unknown benchmark swim")
	}
	cfg := DefaultConfig()
	sys := NewSystem(cfg, bm.Build(workloads.ScaleSmall))

	// Drive the optimizer until a live trace carries an inserted PREFETCH.
	var (
		pfPC  uint64
		limit uint64
	)
	for limit = 50_000; limit <= 600_000 && pfPC == 0; limit += 50_000 {
		sys.Run(limit)
		sys.cache.VisitPlacements(func(pl *trident.Placement) {
			if pfPC != 0 || !pl.Live {
				return
			}
			for i := range pl.Trace.Insts {
				ti := &pl.Trace.Insts[i]
				if ti.Inserted && ti.Inst.Op == isa.PREFETCH {
					pfPC = pl.Start + uint64(i)*isa.WordSize
					return
				}
			}
		})
	}
	if pfPC == 0 {
		t.Fatal("optimizer never placed a prefetch in a live trace")
	}

	// Rewrite the prefetch's offset to a distinctive far distance no other
	// access in the workload can reach, mimicking a repair event's patch.
	const farOff = 1 << 21
	oldImm, err := sys.cache.InstImm(pfPC)
	if err != nil {
		t.Fatal(err)
	}
	if oldImm == farOff {
		t.Fatalf("test offset collides with the optimizer's choice %d", oldImm)
	}
	if err := sys.cache.PatchImm(pfPC, farOff); err != nil {
		t.Fatal(err)
	}
	// The execution-visible fetch path and the batch descriptor must both
	// observe the rewritten word immediately.
	in, ok := sys.Fetch(pfPC)
	if !ok || in.Imm != farOff {
		t.Fatalf("Fetch after patch: ok=%v imm=%d, want %d", ok, in.Imm, farOff)
	}
	if blk, ok := sys.cache.BlockAt(pfPC); !ok || blk.Insts[0].Imm != farOff {
		t.Fatalf("BlockAt after patch: ok=%v, stale descriptor", ok)
	}

	// Run a few loop iterations at a time — batched by the superblock
	// engine — and require the machine behaviour to show the new distance:
	// a line in the far region (prefetch base + farOff, which only the
	// patched word addresses) entering L1 via a prefetch fill. The probe
	// window trails the base register, which advances between the patched
	// word's execution and the window boundary.
	issued := sys.hier.Stats.PrefetchesIssued
	lineSz := uint64(sys.hier.Config().LineSize)
	found := false
	for w := 0; w < 40 && !found; w++ {
		limit += 100
		sys.Run(limit)
		base := sys.thread.Reg(in.Ra)
		for back := uint64(0); back <= 256 && !found; back++ {
			found = sys.hier.ContainsL1(base + farOff - back*lineSz)
		}
	}
	if sys.hier.Stats.PrefetchesIssued == issued {
		t.Fatal("patched prefetch never executed")
	}
	if !found {
		t.Fatalf("no L1 line near base%+d after patched iterations (base=%#x)",
			farOff, sys.thread.Reg(in.Ra))
	}
}
