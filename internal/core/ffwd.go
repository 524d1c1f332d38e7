package core

import (
	"fmt"

	"tridentsp/internal/checkpoint"
	"tridentsp/internal/cpu"
	"tridentsp/internal/isa"
	"tridentsp/internal/trident"
)

// Sampled-simulation support (DESIGN §14). A sampled run alternates detailed
// intervals — the ordinary three-tier engine, every statistic recorded — with
// functional fast-forward gaps where only architectural state advances. This
// file owns the core half of that contract: moving the machine out of the
// code cache, running the functional executor over the pristine image, and
// the architectural (region-of-interest) checkpoints that let a sweep skip
// the functional work after the first pass.

// Results returns the run's statistics so far without perturbing machine
// state. The sampling controller snapshots it around each detailed interval;
// the deltas are what extrapolation is built from.
func (s *System) Results() Results { return s.results() }

// FFwdInstrs reports original instructions advanced functionally by
// FastForward (zero in exact runs).
func (s *System) FFwdInstrs() uint64 { return s.ffwdInstrs }

// Aborted reports the Run-abort reason ("" while healthy).
func (s *System) Aborted() string { return s.aborted }

// Progress reports total original-program progress: detailed plus
// fast-forwarded instructions. Sampled runs cut their interval grid in this
// coordinate.
func (s *System) Progress() uint64 { return s.origInstrs + s.ffwdInstrs }

// TierInstrs reports weighted original instructions retired per execution
// tier (reference loop, superblock batch, JIT). The sampling controller
// folds the mix into its phase-detection signal vector.
func (s *System) TierInstrs() (slow, batch, jit uint64) {
	return s.tiers[tierSlow].instrs, s.tiers[tierBatch].instrs, s.tiers[tierJIT].instrs
}

// FastForward advances the machine n original instructions functionally:
// registers, PC, and data memory evolve exactly as detailed execution would
// evolve them (architectural transparency makes the pristine image's results
// identical to the patched image's), but the clock stays frozen and no
// figure statistics accumulate. The final warm instructions (warm ≤ n) run
// with warm-up probes enabled, so caches, stream buffers, the branch
// predictor, and the DLT enter the next detailed interval lived-in.
// Returns how many instructions actually retired (short only when the
// program halts inside the gap).
func (s *System) FastForward(n, warm uint64) uint64 {
	if n == 0 || s.thread.Halted() || s.aborted != "" {
		return 0
	}
	s.exitCodeCache()
	if warm > n {
		warm = n
	}
	insts := s.pristine.Decoded()
	var done uint64
	if pure := n - warm; pure > 0 {
		done += s.thread.ExecFunctional(insts, s.pristine.Base, pure, nil)
	}
	if warm > 0 && !s.thread.Halted() {
		// The warm pseudo-clock ends exactly at the frozen real cycle, so no
		// warm timestamp (stream-buffer recency, reuse shields) lies in the
		// future of the resumed detailed interval.
		start := s.thread.Now() - int64(warm)
		if start < 0 {
			start = 0
		}
		probes := &cpu.FFProbes{Hier: s.hier, BP: s.bp, Now: start}
		if s.table != nil {
			probes.Load = func(pc, addr uint64, l1Miss bool, now int64) {
				s.table.Warm(pc, addr)
			}
		}
		done += s.thread.ExecFunctional(insts, s.pristine.Base, warm, probes)
	}
	s.ffwdInstrs += done
	return done
}

// exitCodeCache prepares the machine for functional execution: if the PC
// sits inside the code cache, it is mapped back to the equivalent
// original-program address, and the trace-execution loop state is cleared so
// the next detailed interval re-resolves from scratch.
func (s *System) exitCodeCache() {
	pc := s.thread.PC()
	if s.cache.Contains(pc) {
		if pl, ok := s.cache.PlacementAt(pc); ok {
			s.thread.SetPC(mapTracePC(pl, pc))
		}
	}
	s.curPl = nil
	s.inTraversal = false
}

// mapTracePC translates an in-trace PC to the original-program PC of the
// next not-yet-executed original instruction: the first non-inserted trace
// instruction at or after the current position. Inserted prefetch code has
// no original counterpart and is skipped (its effects are architecturally
// invisible); if only inserted code remains, the traversal was about to loop
// back, so the trace's head address is the resume point.
func mapTracePC(pl *trident.Placement, pc uint64) uint64 {
	idx := (pc - pl.Start) / isa.WordSize
	for i := idx; i < uint64(len(pl.Trace.Insts)); i++ {
		ti := &pl.Trace.Insts[i]
		if !ti.Inserted && ti.OrigPC != 0 {
			return ti.OrigPC
		}
	}
	return pl.Trace.StartPC
}

// SaveROI serializes the architectural state only — registers, PC, halted,
// data memory — stamped with the run's current total progress. Because
// functional execution is config-independent, the blob is reusable by any
// (config, seed) variant of the same workload: that is the region-of-
// interest cache's whole trick. Unlike SaveState, no quiescing is needed;
// microarchitectural and optimizer state is deliberately not captured.
// Memory is diff-encoded against the program's immutable data image, the
// same codec SaveState uses: the blob carries only the written working set,
// and any System built from the same workload reconstructs the rest by
// sharing the image's pages copy-on-write. The format mark is "core.roi4";
// the ROI cache's meta line carries the same version, so files of older
// formats read as misses rather than reaching RestoreROI.
func (s *System) SaveROI() []byte {
	c := checkpoint.NewSaver()
	s.roi(c)
	return c.Bytes()
}

// RestoreROI replaces the architectural state with a SaveROI blob, leaving
// detailed-run statistics and microarchitectural state untouched (warm-up
// rebuilds the latter, exactly as it does after an in-process fast-forward).
// The machine's progress becomes the blob's stamp: ffwdInstrs absorbs the
// skipped gap, origInstrs keeps this run's own detailed accounting.
func (s *System) RestoreROI(blob []byte) error {
	c := checkpoint.NewLoader(blob)
	at := s.roi(c)
	if err := c.Finish(); err != nil {
		return err
	}
	if at < s.origInstrs {
		return fmt.Errorf("core: ROI checkpoint at %d instructions is behind this run's detailed progress %d", at, s.origInstrs)
	}
	s.ffwdInstrs = at - s.origInstrs
	s.curPl = nil
	s.inTraversal = false
	return nil
}

// roi walks a region-of-interest snapshot — the architectural thread state,
// data memory as a diff against the image, and the progress stamp — and
// returns the stamp (the machine's own progress when saving).
func (s *System) roi(c *checkpoint.Codec) uint64 {
	c.Mark("core.roi4")
	s.thread.CheckpointArch(c)
	s.mem.CheckpointDiff(c, s.image)
	at := s.Progress()
	c.U64(&at)
	return at
}
