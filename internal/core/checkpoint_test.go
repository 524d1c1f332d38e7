package core

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"

	"tridentsp/internal/chaos"
	"tridentsp/internal/checkpoint"
	"tridentsp/internal/isa"
	"tridentsp/internal/program"
	"tridentsp/internal/telemetry"
	"tridentsp/internal/workloads"
)

// Checkpoint/restore (state.go) claims a restored machine is bit-identical
// to one that never stopped. These tests prove it the same way the fast
// path proved its equivalence: run the reference uninterrupted, run the
// same machine through checkpoint → fresh System → restore cycles at every
// window boundary, and require Results (comparable, == is the exact check),
// the final PC, the register file, and the semantic telemetry stream to
// match exactly.

// checkpointedRun executes bm in windows, serializing and restoring into a
// freshly constructed System at every boundary. Each blob must be cut at
// exactly the window boundary asked for, pending optimization or not.
// Returns the final results, the final system, and how many blobs were cut
// while an optimization was pending.
func checkpointedRun(t *testing.T, cfg Config, bm workloads.Benchmark,
	limit, window uint64) (Results, *System, int) {
	t.Helper()
	sys := NewSystem(cfg, bm.Build(workloads.ScaleSmall))
	var res Results
	pendingCuts := 0
	for {
		next := sys.OrigInstrs() + window
		if next > limit {
			next = limit
		}
		res = sys.Run(next)
		if res.Aborted != "" || sys.Thread().Halted() || sys.OrigInstrs() >= limit {
			return res, sys, pendingCuts
		}
		if sys.OrigInstrs() != next {
			t.Fatalf("checkpoint asked for at %d instructions was cut at %d", next, sys.OrigInstrs())
		}
		if sys.pending != nil {
			pendingCuts++
		}
		blob, err := sys.SaveState()
		if err != nil {
			t.Fatalf("SaveState at %d instructions: %v", sys.OrigInstrs(), err)
		}
		fresh := NewSystem(cfg, bm.Build(workloads.ScaleSmall))
		if err := fresh.RestoreState(blob); err != nil {
			t.Fatalf("RestoreState at %d instructions: %v", sys.OrigInstrs(), err)
		}
		// Canonical form: re-serializing the restored machine must
		// reproduce the exact bytes (maps travel sorted, rings by content).
		blob2, err := fresh.SaveState()
		if err != nil {
			t.Fatalf("re-SaveState: %v", err)
		}
		if !bytes.Equal(blob, blob2) {
			t.Fatalf("restore is not canonical: blobs differ at %d instructions (%d vs %d bytes)",
				sys.OrigInstrs(), len(blob), len(blob2))
		}
		sys = fresh
	}
}

// compareSystems requires two finished machines to agree on everything the
// determinism contract covers (engine telemetry excluded by design: batch
// boundaries move across a restore).
func compareSystems(t *testing.T, label string, resA, resB Results, a, b *System) {
	t.Helper()
	if resA != resB {
		t.Errorf("%s: Results diverged\nuninterrupted: %+v\ncheckpointed:  %+v", label, resA, resB)
	}
	if pa, pb := a.Thread().PC(), b.Thread().PC(); pa != pb {
		t.Errorf("%s: final PC diverged: %#x vs %#x", label, pa, pb)
	}
	for r := isa.Reg(0); r < isa.NumRegs; r++ {
		if va, vb := a.Thread().Reg(r), b.Thread().Reg(r); va != vb {
			t.Errorf("%s: r%d diverged: %#x vs %#x", label, r, va, vb)
		}
	}
	if a.hier.Stats != b.hier.Stats {
		t.Errorf("%s: memsys.Stats diverged\n%+v\nvs\n%+v", label, a.hier.Stats, b.hier.Stats)
	}
	evA := telemetry.Renumber(a.Telemetry().Events())
	evB := telemetry.Renumber(b.Telemetry().Events())
	if len(evA) != len(evB) {
		t.Errorf("%s: semantic event counts diverged: %d vs %d", label, len(evA), len(evB))
	} else if !reflect.DeepEqual(evA, evB) {
		for i := range evA {
			if evA[i] != evB[i] {
				t.Errorf("%s: semantic event %d diverged:\n%+v\nvs\n%+v", label, i, evA[i], evB[i])
				break
			}
		}
	}
}

func TestCheckpointResumeDeterminism(t *testing.T) {
	telem := func(c Config) Config { c.Telemetry = &telemetry.Options{}; return c }
	valspec := telem(func() Config { c := DefaultConfig(); c.ValueSpecialize = true; return c }())
	// The eviction storm's code-cache evictions unlink live traces mid-run.
	storm, err := chaos.NewSchedule(chaos.PresetEvictionStorm, 1, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	evict := valspec
	evict.Chaos = storm
	matrix := []struct {
		name, bench   string
		cfg           Config
		limit, window uint64
		wantPending   bool // some cut must carry a pending optimization
		wantUnlink    bool // some live trace must be unlinked
	}{
		{"default", "mcf", telem(DefaultConfig()), 150_000, 40_000, false, false},
		{"slowpath", "mcf", telem(func() Config { c := DefaultConfig(); c.DisableFastPath = true; return c }()), 150_000, 40_000, false, false},
		{"baseline", "mcf", telem(BaselineConfig(HW8x8)), 150_000, 40_000, false, false},
		{"valspec-evict", "mcf", evict, 150_000, 40_000, false, true},
		{"art-valspec", "art", valspec, 400_000, 100_000, true, false},
	}
	for _, m := range matrix {
		m := m
		t.Run(m.name, func(t *testing.T) {
			bm, _ := workloads.ByName(m.bench)
			ref := NewSystem(m.cfg, bm.Build(workloads.ScaleSmall))
			resRef := ref.Run(m.limit)
			resCkpt, sys, pendingCuts := checkpointedRun(t, m.cfg, bm, m.limit, m.window)
			compareSystems(t, m.name, resRef, resCkpt, ref, sys)
			if m.wantPending && pendingCuts == 0 {
				t.Errorf("no checkpoint was cut while an optimization was pending")
			}
			if m.wantUnlink && backOuts(sys) == 0 {
				t.Errorf("no live trace was unlinked")
			}
		})
	}
}

// backOuts counts the trace-back-out events (live traces unlinked) a
// telemetry-enabled machine has emitted.
func backOuts(sys *System) uint64 {
	return sys.Telemetry().Metrics().Counter("events_" + telemetry.KindTraceBackOut.String()).V
}

func TestCheckpointResumeDeterminismChaosPresets(t *testing.T) {
	bm, _ := workloads.ByName("art")
	for _, preset := range chaos.Presets() {
		preset := preset
		t.Run(string(preset), func(t *testing.T) {
			sched, err := chaos.NewSchedule(preset, 42, 4_000_000)
			if err != nil {
				t.Fatal(err)
			}
			cfg := DefaultConfig()
			cfg.Chaos = sched
			cfg.Telemetry = &telemetry.Options{}
			ref := NewSystem(cfg, bm.Build(workloads.ScaleSmall))
			resRef := ref.Run(150_000)
			resCkpt, sys, _ := checkpointedRun(t, cfg, bm, 150_000, 35_000)
			compareSystems(t, string(preset), resRef, resCkpt, ref, sys)
		})
	}
}

// abortingProgram does real streaming work, then falls into a weight-zero
// self-loop (the bitmap marks it as a patch site, excluding it from
// original-instruction accounting) — the livelock scenario a bad trace
// patch leaves behind.
func abortingProgram() (*program.Program, uint64) {
	b := program.NewBuilder("abort-spin", 0x1000, 0x1000000)
	arr := b.Alloc(1 << 20)
	b.Ldi(1, arr)
	b.Ldi(4, 60_000)
	b.Label("top")
	b.Ld(2, 1, 0)
	b.OpI(isa.ADDI, 1, 1, 64)
	b.Op(isa.ADD, 3, 3, 2)
	b.OpI(isa.ANDI, 1, 1, (1<<20)-1)
	b.OpI(isa.ADDI, 1, 1, 0x1000)
	b.OpI(isa.SUBI, 4, 4, 1)
	b.CondBr(isa.BNE, 4, "top")
	spin := b.PC()
	b.Label("spin")
	b.Br("spin")
	b.Halt()
	return b.MustBuild(), spin
}

// TestCheckpointResumeAfterAbort: a run that hits the livelock abort can be
// restored from its last checkpoint and re-aborts bit-identically to an
// uninterrupted run — the crash-recovery path the checkpoint driver relies
// on after a SIGKILL mid-window.
func TestCheckpointResumeAfterAbort(t *testing.T) {
	prog, spin := abortingProgram()
	cfg := DefaultConfig()
	cfg.LivelockWindow = 10_000
	const limit = 2_000_000

	run := func() (*System, Results) {
		sys := NewSystem(cfg, prog.ClonePristine())
		sys.setPatched(spin, true)
		return sys, sys.Run(limit)
	}

	ref, resRef := run()
	if resRef.Aborted == "" {
		t.Fatal("reference run did not abort")
	}
	if !strings.Contains(resRef.Aborted, "livelock") {
		t.Fatalf("unexpected abort reason: %s", resRef.Aborted)
	}

	// Windowed run: checkpoint every 80k instructions until the abort,
	// keeping the last good blob.
	sys := NewSystem(cfg, prog.ClonePristine())
	sys.setPatched(spin, true)
	var lastBlob []byte
	var resAborted Results
	for {
		resAborted = sys.Run(sys.OrigInstrs() + 80_000)
		if resAborted.Aborted != "" || sys.Thread().Halted() {
			break
		}
		blob, err := sys.SaveState()
		if err != nil {
			t.Fatal(err)
		}
		lastBlob = blob
	}
	if resAborted.Aborted == "" {
		t.Fatal("windowed run did not abort")
	}
	if lastBlob == nil {
		t.Fatal("no checkpoint was taken before the abort")
	}

	// Restore the last checkpoint into a fresh machine (no setPatched: the
	// bitmap travels in the blob) and re-run the remaining window.
	restored := NewSystem(cfg, prog.ClonePristine())
	if err := restored.RestoreState(lastBlob); err != nil {
		t.Fatal(err)
	}
	resRestored := restored.Run(limit)
	if resRestored != resRef {
		t.Errorf("restored run diverged from uninterrupted\nuninterrupted: %+v\nrestored:      %+v",
			resRef, resRestored)
	}
	if ref.Thread().PC() != restored.Thread().PC() {
		t.Errorf("final PC diverged: %#x vs %#x", ref.Thread().PC(), restored.Thread().PC())
	}
}

// TestRestoreRejectsTruncation: every truncation of a valid state blob must
// be rejected with an error — never a panic, never a silent partial load.
func TestRestoreRejectsTruncation(t *testing.T) {
	bm, _ := workloads.ByName("swim")
	cfg := DefaultConfig()
	cfg.Telemetry = &telemetry.Options{}
	sys := NewSystem(cfg, bm.Build(workloads.ScaleSmall))
	sys.Run(60_000)
	blob, err := sys.SaveState()
	if err != nil {
		t.Fatal(err)
	}
	// Sample truncation points densely at the head (headers, marks) and
	// sparsely through the body.
	for k := 0; k < len(blob); k += 1 + k/16 {
		fresh := NewSystem(cfg, bm.Build(workloads.ScaleSmall))
		if err := fresh.RestoreState(blob[:k]); err == nil {
			t.Fatalf("truncation to %d/%d bytes restored without error", k, len(blob))
		}
	}
	// Trailing garbage is also structural corruption.
	fresh := NewSystem(cfg, bm.Build(workloads.ScaleSmall))
	if err := fresh.RestoreState(append(append([]byte{}, blob...), 0xEE)); err == nil {
		t.Fatal("trailing garbage restored without error")
	}
}

// TestRestoreRejectsConfigMismatch: a blob saved from one configuration
// must not load into a machine built from a different one.
func TestRestoreRejectsConfigMismatch(t *testing.T) {
	bm, _ := workloads.ByName("swim")
	sys := NewSystem(DefaultConfig(), bm.Build(workloads.ScaleSmall))
	sys.Run(30_000)
	blob, err := sys.SaveState()
	if err != nil {
		t.Fatal(err)
	}
	other := NewSystem(BaselineConfig(HWNone), bm.Build(workloads.ScaleSmall))
	if err := other.RestoreState(blob); err == nil {
		t.Fatal("Trident blob restored into a baseline machine")
	}
}

// Data memory travels as a diff against the program image (DESIGN §12.2):
// the full-machine blob carries the written working set, not the footprint,
// and a restored machine is the image plus that diff.

// memDiffPages encodes m as a diff against base and returns how many pages
// the diff carries — the pages m does not share with base.
func memDiffPages(t *testing.T, m, base *program.Memory) int {
	t.Helper()
	e := checkpoint.NewSaver()
	m.CheckpointDiff(e, base)
	d := checkpoint.NewLoader(e.Bytes())
	d.Mark("program.memdiff")
	var mapped int
	d.Int(&mapped) // base mapped-word count
	n := d.Len(0)
	if err := d.Err(); err != nil {
		t.Fatalf("decode memdiff header: %v", err)
	}
	return n
}

// TestSaveStateSizeScalesWithWrites: on mcf at full scale (a ~15 MiB data
// image) the machine checkpoint stays under 1 MiB, both fresh and after the
// sampled schedule's 1.5M-instruction startup prefix: the blob grows with
// the pages the run wrote, not with the image.
func TestSaveStateSizeScalesWithWrites(t *testing.T) {
	bm, _ := workloads.ByName("mcf")
	sys := NewSystem(DefaultConfig(), bm.Build(workloads.ScaleFull))
	const limit = 1 << 20
	for _, at := range []uint64{0, 1_500_000} {
		sys.Run(at)
		blob, err := sys.SaveState()
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("SaveState at %d instructions: %d bytes", sys.OrigInstrs(), len(blob))
		if len(blob) >= limit {
			t.Errorf("SaveState at %d instructions: %d bytes, want < %d (image maps %d words)",
				at, len(blob), limit, sys.image.Footprint())
		}
	}
}

// TestRestoreSharesUntouchedPages: after a run that dirtied pages, a
// restored machine re-saves to identical bytes (canonical form) and holds
// privately exactly the pages the run wrote — every other page is shared
// with the program image copy-on-write, as in a machine that never stopped.
func TestRestoreSharesUntouchedPages(t *testing.T) {
	bm, _ := workloads.ByName("swim")
	cfg := DefaultConfig()
	sys := NewSystem(cfg, bm.Build(workloads.ScaleSmall))
	sys.Run(200_000)
	dirty := memDiffPages(t, sys.mem, sys.image)
	all := memDiffPages(t, sys.image, &program.Memory{})
	if dirty == 0 || dirty >= all {
		t.Fatalf("setup: run dirtied %d of %d image pages, want some but not all", dirty, all)
	}
	blob, err := sys.SaveState()
	if err != nil {
		t.Fatal(err)
	}
	fresh := NewSystem(cfg, bm.Build(workloads.ScaleSmall))
	if err := fresh.RestoreState(blob); err != nil {
		t.Fatal(err)
	}
	blob2, err := fresh.SaveState()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, blob2) {
		t.Fatalf("restore is not canonical: %d vs %d bytes", len(blob), len(blob2))
	}
	if got := memDiffPages(t, fresh.mem, fresh.image); got != dirty {
		t.Errorf("restored machine holds %d pages apart from the image, want the %d the run wrote",
			got, dirty)
	}
	if !reflect.DeepEqual(fresh.mem.Snapshot(), sys.mem.Snapshot()) {
		t.Error("restored memory contents differ from the saved machine's")
	}
}

// TestRestoreRejectsDenseMemory: a blob from the retired dense memory codec
// (section "program.memory") is refused as corrupt, naming the section,
// rather than misread as a diff.
func TestRestoreRejectsDenseMemory(t *testing.T) {
	bm, _ := workloads.ByName("swim")
	cfg := DefaultConfig()
	sys := NewSystem(cfg, bm.Build(workloads.ScaleSmall))
	e := checkpoint.NewSaver()
	e.Mark("core.system5")
	sys.thread.Checkpoint(e)
	sys.live.Checkpoint(e)
	e.Mark("program.memory")
	e.Len(0)
	e.Int(new(int))
	err := NewSystem(cfg, bm.Build(workloads.ScaleSmall)).RestoreState(e.Bytes())
	if !errors.Is(err, checkpoint.ErrCorrupt) || !strings.Contains(err.Error(), `"program.memory"`) {
		t.Fatalf("dense-memory blob: err = %v, want ErrCorrupt naming \"program.memory\"", err)
	}
}

// TestRestoreRejectsOlderMachineFormat: machine checkpoints of earlier
// formats are refused as corrupt, naming the section this build expects.
// "core.system3" still carried the nested shadow machine and the load
// counters; "core.system4" carried the fill-ready heap and the batch-local
// loop state (sbPl, sbEntry, sbHeadPending).
func TestRestoreRejectsOlderMachineFormat(t *testing.T) {
	bm, _ := workloads.ByName("swim")
	for _, mark := range []string{"core.system3", "core.system4"} {
		e := checkpoint.NewSaver()
		e.Mark(mark)
		err := NewSystem(DefaultConfig(), bm.Build(workloads.ScaleSmall)).RestoreState(e.Bytes())
		if !errors.Is(err, checkpoint.ErrCorrupt) || !strings.Contains(err.Error(), `"core.system5"`) {
			t.Fatalf("%s blob: err = %v, want ErrCorrupt naming \"core.system5\"", mark, err)
		}
	}
}

// TestRestoreStateAllocations: seeding a sampled chain — RestoreState of the
// startup snapshot S₀ into a fresh machine — allocates per structure, not
// per cache set or per page. S₀ is cut after the sampled schedule's
// 1.5M-instruction startup prefix at full scale; NewSystem's own
// allocations are measured separately and subtracted. Cache levels restore
// into their flat way arrays in place, and the page table grows within its
// capacity, so what remains is the handful of pages and tables the snapshot
// itself carries.
func TestRestoreStateAllocations(t *testing.T) {
	const limit = 200
	cfg := DefaultConfig()
	for _, name := range []string{"mcf", "vis"} {
		bm, _ := workloads.ByName(name)
		build := func() *System { return NewSystem(cfg, bm.Build(workloads.ScaleFull)) }
		sys := build()
		sys.Run(1_500_000)
		s0, err := sys.SaveState()
		if err != nil {
			t.Fatal(err)
		}
		newSys := testing.AllocsPerRun(5, func() { build() })
		seeded := testing.AllocsPerRun(5, func() {
			if err := build().RestoreState(s0); err != nil {
				t.Fatal(err)
			}
		})
		restore := seeded - newSys
		t.Logf("%s: NewSystem %.0f allocations, RestoreState(S₀) %.0f more", name, newSys, restore)
		if restore >= limit {
			t.Errorf("%s: RestoreState(S₀) into a fresh machine made %.0f allocations, want < %d",
				name, restore, limit)
		}
	}
}

// TestNewSystemAllocations: building a machine allocates per structure. The
// DLT's sets share one backing array instead of one allocation per set.
func TestNewSystemAllocations(t *testing.T) {
	const limit = 200
	bm, _ := workloads.ByName("mcf")
	prog := bm.Build(workloads.ScaleSmall)
	cfg := DefaultConfig()
	n := testing.AllocsPerRun(5, func() { NewSystem(cfg, prog) })
	t.Logf("NewSystem: %.0f allocations", n)
	if n >= limit {
		t.Errorf("NewSystem made %.0f allocations, want < %d", n, limit)
	}
}
