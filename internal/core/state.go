package core

import (
	"tridentsp/internal/checkpoint"
	"tridentsp/internal/trace"
)

// Checkpoint/restore for the whole machine (DESIGN §12). SaveState and
// RestoreState run one walk (checkpoint) over every subsystem's own walk in
// a fixed order, saving from or loading into a System built from the
// identical Config and program. Wiring, derived constants, and registered
// callbacks come from construction — only mutable state travels, so a Config mismatch surfaces
// as a structural validation error, never as silent divergence. Data memory
// travels as a diff against the program's immutable image (s.image), the
// same codec SaveROI uses: the blob carries the written working set, and
// the restored memory shares every untouched page with the image.
//
// A pending optimization (s.pending) is data like the rest, so a checkpoint
// is cut wherever Run(N) stops, and the restored run is bit-identical to
// the uninterrupted one (engine-class telemetry excepted — fast-path
// session events depend on where batches start).

// OrigInstrs reports the committed original-instruction count so far —
// Run's progress cursor, and the coordinate checkpoint windows are cut at.
func (s *System) OrigInstrs() uint64 { return s.origInstrs }

// Quiesce steps the reference loop until no optimization is pending (bounded
// by maxSteps), reporting whether none is (or the machine halted or
// aborted). Sampled runs drain so at every window edge (DESIGN §15): a patch
// lands only under detailed execution, never in the functional gap after.
func (s *System) Quiesce(maxSteps int) bool {
	for i := 0; i < maxSteps && s.pending != nil && !s.thread.Halted() && s.aborted == ""; i++ {
		s.step()
	}
	return s.pending == nil || s.thread.Halted() || s.aborted != ""
}

// SaveState serializes the machine's full mutable state. The error is
// always nil: every field, a pending optimization included, serializes.
func (s *System) SaveState() ([]byte, error) {
	c := checkpoint.NewSaver()
	s.checkpoint(c)
	return c.Bytes(), nil
}

// RestoreState loads a SaveState blob into this machine, which must have
// been built from the same Config and program image. The machine need not
// be fresh: the restore drops the compiled tiers and zeroes the engine
// counters no checkpoint carries (tier residency, block-cache activity), so
// a machine that has run before continues exactly as a freshly built one
// restored from the same bytes — the property that lets sampled chains
// recycle worker machines (DESIGN §15). The one exception is a fast path
// the divergence sentinel demoted: demotion lives in the machine's Config
// and survives. Errors leave no guarantee about partial state — discard
// the machine.
func (s *System) RestoreState(blob []byte) error {
	s.resetEngineCounters()
	return s.restore(blob)
}

// restore is RestoreState without the engine-counter reset. The sentinel's
// rewind uses it: the rewind stays inside one run, whose tier residency
// keeps accumulating across it.
func (s *System) restore(blob []byte) error {
	c := checkpoint.NewLoader(blob)
	s.checkpoint(c)
	return c.Finish()
}

// resetEngineCounters zeroes the engine-class counters a fresh machine
// starts from and a checkpoint never carries.
func (s *System) resetEngineCounters() {
	s.tiers = [numTiers]tierStat{}
	s.live.ResetBlockStats()
	s.cache.ResetBlockStats()
}

// walkPending walks the pending optimization, if any. A kind this machine
// cannot land (unknown, or a prefetch change with no optimizer) is corrupt.
func (s *System) walkPending(c *checkpoint.Codec) {
	have := s.pending != nil
	if c.Bool(&have); !have {
		s.pending = nil
		return
	}
	if c.Loading() {
		s.pending = new(pendingOpt)
	}
	p := s.pending
	if checkpoint.Enum(c, &p.kind); p.kind >= numPendingKinds || p.kind == pendPrefetch && s.opt == nil {
		c.Failf("pending optimization of kind %d on this machine", p.kind)
	}
	c.I64(&p.at)
	c.U64(&p.head)
	c.Int(&p.oldID)
	c.U64(&p.loadPC)
	if p.kind != pendPrefetch {
		trace.Checkpoint(c, &p.tr)
	}
}

// checkpoint walks the whole machine: every subsystem in a fixed order,
// then the execution loop's own state. Optional subsystems travel behind a
// presence flag that loading checks against this machine's configuration.
func (s *System) checkpoint(c *checkpoint.Codec) {
	c.Mark("core.system5")
	s.thread.Checkpoint(c)
	s.live.Checkpoint(c)
	s.mem.CheckpointDiff(c, s.image)
	s.hier.Checkpoint(c)
	if c.Present(s.sb != nil, "stream buffers") {
		s.sb.Checkpoint(c)
	}
	if c.Present(s.hwp != nil, "an arsenal prefetcher") {
		s.hwp.Checkpoint(c)
	}
	s.bp.Checkpoint(c)
	s.cache.Checkpoint(c)
	if c.Present(s.cfg.Trident, "Trident") {
		s.prof.Checkpoint(c)
		s.watch.Checkpoint(c)
		s.table.Checkpoint(c)
		if c.Present(s.vpt != nil, "a value profile table") {
			s.vpt.Checkpoint(c)
		}
		s.queue.Checkpoint(c)
		s.helper.Checkpoint(c)
		if c.Present(s.opt != nil, "a prefetch optimizer") {
			s.opt.Checkpoint(c)
		}
	}

	// Execution-loop state. Placement pointers travel as indices into the
	// code cache's placement slice.
	c.Mark("core.loop")
	curPl := s.cache.PlacementIndex(s.curPl)
	c.Int(&curPl)
	c.I64(&s.traversalStart)
	c.Bool(&s.inTraversal)
	c.I64(&s.lastNow)
	if !c.Count(len(s.patched), "patched-word flags") {
		return
	}
	for i := range s.patched {
		c.Bool(&s.patched[i])
	}
	s.walkPending(c)
	c.Bool(&s.interfering)
	if c.Loading() {
		s.curPl = s.cache.PlacementByIndex(curPl)
	}
	if c.Present(s.chaosRun != nil, "a chaos schedule") {
		s.chaosRun.Checkpoint(c)
	}
	if c.Present(s.monitor != nil, "a watchdog monitor") {
		// The architectural twin travels as a region-of-interest snapshot
		// (SaveROI's walk) plus its instruction count.
		s.monitor.Checkpoint(c)
		s.twin.thread.CheckpointArch(c)
		s.twin.mem.CheckpointDiff(c, s.image)
		c.U64(&s.twin.instrs)
	}
	checkpoint.Slice(c, &s.latFactors, (*checkpoint.Codec).I64)
	checkpoint.Slice(c, &s.assocLimits, (*checkpoint.Codec).Int)

	c.Str(&s.aborted)
	c.U64(&s.origInstrs)
	c.U64(&s.ffwdInstrs)

	st := &s.stats
	for _, v := range []*uint64{&st.tracesFormed, &st.tracesSpecialized,
		&st.missesTotal, &st.missesInTrace, &st.missesCovered,
		&st.applyErrors, &st.traceTraversal, &st.sentinelChecks, &st.sentinelTrips} {
		c.U64(v)
	}

	c.U64(&s.sentinelNextAt)
	snap := s.sentinelSnap != nil
	c.Bool(&snap)
	if c.Loading() {
		s.sentinelSnap = nil
	}
	if snap {
		c.Blob(&s.sentinelSnap)
	}
	c.U64(&s.sentinelSnapAt)

	if c.Present(s.tel != nil, "telemetry") {
		s.tel.Checkpoint(c)
	}
}
