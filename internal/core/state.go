package core

import (
	"errors"
	"fmt"
	"sort"

	"tridentsp/internal/checkpoint"
)

// Checkpoint/restore for the whole machine (DESIGN §12). SaveState walks
// every subsystem's SaveState in a fixed order; RestoreState loads the same
// order into a System freshly built from the identical Config and program.
// Wiring, derived constants, and registered callbacks come from
// construction — only mutable state travels, so a Config mismatch surfaces
// as a structural validation error, never as silent divergence. Data memory
// travels as a diff against the program's immutable image (s.image), the
// same codec SaveROI uses: the blob carries the written working set, and
// the restored memory shares every untouched page with the image.
//
// The one piece of machine state that cannot be serialized is a pending
// optimization (s.apply), a closure over live structures. Checkpointing
// callers run Quiesce first; the snapshot then lands at a boundary the
// uninterrupted run also passes through, which is what makes a restored run
// bit-identical (engine-class telemetry excepted — fast-path session events
// depend on where batches start, which a restore necessarily changes).

// OrigInstrs reports the committed original-instruction count so far —
// Run's progress cursor, and the coordinate checkpoint windows are cut at.
func (s *System) OrigInstrs() uint64 { return s.origInstrs }

// Quiesce steps the machine until no optimization is pending (bounded by
// maxSteps), so its state is serializable. Returns true when quiescent: the
// pending apply fired (or the machine halted or aborted, which also ends
// the run's need for the closure). The slow steps taken here are
// bit-identical to the ones an uninterrupted run performs at the same
// point, so quiescing does not perturb the run being checkpointed.
func (s *System) Quiesce(maxSteps int) bool {
	for i := 0; i < maxSteps && s.apply != nil && !s.thread.Halted() && s.aborted == ""; i++ {
		s.step()
	}
	return s.apply == nil || s.thread.Halted() || s.aborted != ""
}

// SaveState serializes the machine's full mutable state. It fails when an
// optimization is in flight — call Quiesce first.
func (s *System) SaveState() ([]byte, error) {
	if s.apply != nil && !s.thread.Halted() {
		return nil, errors.New("core: optimization in flight; Quiesce before SaveState")
	}
	e := checkpoint.NewEncoder()
	s.saveState(e)
	return e.Bytes(), nil
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
	d := checkpoint.NewDecoder(blob)
	if err := s.loadState(d); err != nil {
		return err
	}
	return d.Finish()
}

// resetEngineCounters zeroes the engine-class counters a fresh machine
// starts from and a checkpoint never carries.
func (s *System) resetEngineCounters() {
	s.tiers = [numTiers]tierStat{}
	s.live.ResetBlockStats()
	s.cache.ResetBlockStats()
	if s.shadow != nil {
		s.shadow.resetEngineCounters()
	}
}

func (s *System) saveState(e *checkpoint.Encoder) {
	e.Mark("core.system")
	s.thread.SaveState(e)
	s.live.SaveState(e)
	s.mem.SaveStateDiff(e, s.image)
	s.hier.SaveState(e)
	e.Bool(s.sb != nil)
	if s.sb != nil {
		s.sb.SaveState(e)
	}
	e.Bool(s.hwp != nil)
	if s.hwp != nil {
		s.hwp.SaveState(e)
	}
	s.bp.SaveState(e)
	s.cache.SaveState(e)
	e.Bool(s.cfg.Trident)
	if s.cfg.Trident {
		s.prof.SaveState(e)
		s.watch.SaveState(e)
		s.table.SaveState(e)
		e.Bool(s.vpt != nil)
		if s.vpt != nil {
			s.vpt.SaveState(e)
		}
		s.queue.SaveState(e)
		s.helper.SaveState(e)
		e.Bool(s.opt != nil)
		if s.opt != nil {
			s.opt.SaveState(e)
		}
	}

	// Execution-loop state. Placement pointers serialize as indices into
	// the code cache's placement slice.
	e.Mark("core.loop")
	e.Int(s.cache.PlacementIndex(s.curPl))
	e.I64(s.traversalStart)
	e.Bool(s.inTraversal)
	e.I64(s.lastNow)
	e.Len(len(s.patched))
	for _, b := range s.patched {
		e.Bool(b)
	}
	e.I64(s.applyAt)
	e.Bool(s.interfering)
	e.Int(s.cache.PlacementIndex(s.sbPl))
	e.U64(s.sbEntry)
	e.Bool(s.sbHeadPending)

	ids := make([]int, 0, len(s.activity))
	for id := range s.activity {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	e.Len(len(ids))
	for _, id := range ids {
		a := s.activity[id]
		e.Int(id)
		e.U64(a.entries)
		e.U64(a.traversals)
		e.Bool(a.hasLoop)
		e.Bool(a.hasLoopSet)
	}

	e.Bool(s.chaosRun != nil)
	if s.chaosRun != nil {
		s.chaosRun.SaveState(e)
	}
	e.Bool(s.monitor != nil)
	if s.monitor != nil {
		s.monitor.SaveState(e)
	}
	e.Bool(s.shadow != nil)
	if s.shadow != nil {
		s.shadow.saveState(e)
	}
	e.Len(len(s.latFactors))
	for _, f := range s.latFactors {
		e.I64(f)
	}
	e.Len(len(s.assocLimits))
	for _, l := range s.assocLimits {
		e.Int(l)
	}

	e.Str(s.aborted)
	e.U64(s.phaseMarkInstrs)
	e.U64(s.phaseMarkMisses)
	e.F64(s.phaseRate)
	e.Bool(s.phaseRateValid)
	e.U64(s.origInstrs)
	e.U64(s.ffwdInstrs)

	st := &s.stats
	e.U64(st.tracesFormed)
	e.U64(st.tracesBackedOut)
	e.U64(st.tracesSpecialized)
	e.U64(st.phaseClears)
	e.U64(st.missesTotal)
	e.U64(st.missesInTrace)
	e.U64(st.missesCovered)
	e.U64(st.loadsInTrace)
	e.U64(st.loadsTotal)
	e.U64(st.applyErrors)
	e.U64(st.traceTraversal)
	e.U64(st.sentinelChecks)
	e.U64(st.sentinelTrips)

	e.U64(s.sentinelNextAt)
	e.Bool(s.sentinelSnap != nil)
	if s.sentinelSnap != nil {
		e.Blob(s.sentinelSnap)
	}
	e.U64(s.sentinelSnapAt)

	e.Bool(s.tel != nil)
	if s.tel != nil {
		s.tel.SaveState(e)
	}
}

// present validates a subsystem-presence flag against what this System's
// configuration actually built.
func present(d *checkpoint.Decoder, have bool, what string) error {
	want := d.Bool()
	if err := d.Err(); err != nil {
		return err
	}
	if want != have {
		return fmt.Errorf("%w: checkpoint %s %s but this machine %s it — different configuration",
			checkpoint.ErrCorrupt, hasWord(want), what, hasWord(have))
	}
	return nil
}

func hasWord(b bool) string {
	if b {
		return "has"
	}
	return "lacks"
}

func (s *System) loadState(d *checkpoint.Decoder) error {
	d.Expect("core.system")
	if err := s.thread.LoadState(d); err != nil {
		return err
	}
	if err := s.live.LoadState(d); err != nil {
		return err
	}
	if err := s.mem.LoadStateDiff(d, s.image); err != nil {
		return err
	}
	if err := s.hier.LoadState(d); err != nil {
		return err
	}
	if err := present(d, s.sb != nil, "stream buffers"); err != nil {
		return err
	}
	if s.sb != nil {
		if err := s.sb.LoadState(d); err != nil {
			return err
		}
	}
	if err := present(d, s.hwp != nil, "an arsenal prefetcher"); err != nil {
		return err
	}
	if s.hwp != nil {
		if err := s.hwp.LoadState(d); err != nil {
			return err
		}
	}
	if err := s.bp.LoadState(d); err != nil {
		return err
	}
	if err := s.cache.LoadState(d); err != nil {
		return err
	}
	if err := present(d, s.cfg.Trident, "Trident"); err != nil {
		return err
	}
	if s.cfg.Trident {
		if err := s.prof.LoadState(d); err != nil {
			return err
		}
		if err := s.watch.LoadState(d); err != nil {
			return err
		}
		if err := s.table.LoadState(d); err != nil {
			return err
		}
		if err := present(d, s.vpt != nil, "a value profile table"); err != nil {
			return err
		}
		if s.vpt != nil {
			if err := s.vpt.LoadState(d); err != nil {
				return err
			}
		}
		if err := s.queue.LoadState(d); err != nil {
			return err
		}
		if err := s.helper.LoadState(d); err != nil {
			return err
		}
		if err := present(d, s.opt != nil, "a prefetch optimizer"); err != nil {
			return err
		}
		if s.opt != nil {
			if err := s.opt.LoadState(d); err != nil {
				return err
			}
		}
	}

	d.Expect("core.loop")
	s.curPl = s.cache.PlacementByIndex(d.Int())
	s.traversalStart = d.I64()
	s.inTraversal = d.Bool()
	s.lastNow = d.I64()
	n := d.Len()
	if d.Err() != nil {
		return d.Err()
	}
	if n != len(s.patched) {
		return fmt.Errorf("%w: patch bitmap covers %d words, program has %d",
			checkpoint.ErrCorrupt, n, len(s.patched))
	}
	for i := range s.patched {
		s.patched[i] = d.Bool()
	}
	s.apply = nil
	s.applyAt = d.I64()
	s.interfering = d.Bool()
	s.sbPl = s.cache.PlacementByIndex(d.Int())
	s.sbEntry = d.U64()
	s.sbHeadPending = d.Bool()

	na := d.Len()
	if d.Err() != nil {
		return d.Err()
	}
	s.activity = make(map[int]*traceActivity, na)
	for i := 0; i < na; i++ {
		id := d.Int()
		s.activity[id] = &traceActivity{
			entries:    d.U64(),
			traversals: d.U64(),
			hasLoop:    d.Bool(),
			hasLoopSet: d.Bool(),
		}
	}

	if err := present(d, s.chaosRun != nil, "a chaos schedule"); err != nil {
		return err
	}
	if s.chaosRun != nil {
		if err := s.chaosRun.LoadState(d); err != nil {
			return err
		}
	}
	if err := present(d, s.monitor != nil, "a watchdog monitor"); err != nil {
		return err
	}
	if s.monitor != nil {
		if err := s.monitor.LoadState(d); err != nil {
			return err
		}
	}
	if err := present(d, s.shadow != nil, "a shadow machine"); err != nil {
		return err
	}
	if s.shadow != nil {
		if err := s.shadow.loadState(d); err != nil {
			return err
		}
	}
	s.latFactors = s.latFactors[:0]
	for k := d.Len(); k > 0; k-- {
		s.latFactors = append(s.latFactors, d.I64())
	}
	s.assocLimits = s.assocLimits[:0]
	for k := d.Len(); k > 0; k-- {
		s.assocLimits = append(s.assocLimits, d.Int())
	}

	s.aborted = d.Str()
	s.phaseMarkInstrs = d.U64()
	s.phaseMarkMisses = d.U64()
	s.phaseRate = d.F64()
	s.phaseRateValid = d.Bool()
	s.origInstrs = d.U64()
	s.ffwdInstrs = d.U64()

	st := &s.stats
	st.tracesFormed = d.U64()
	st.tracesBackedOut = d.U64()
	st.tracesSpecialized = d.U64()
	st.phaseClears = d.U64()
	st.missesTotal = d.U64()
	st.missesInTrace = d.U64()
	st.missesCovered = d.U64()
	st.loadsInTrace = d.U64()
	st.loadsTotal = d.U64()
	st.applyErrors = d.U64()
	st.traceTraversal = d.U64()
	st.sentinelChecks = d.U64()
	st.sentinelTrips = d.U64()

	s.sentinelNextAt = d.U64()
	s.sentinelSnap = nil
	if d.Bool() {
		s.sentinelSnap = d.Blob()
	}
	s.sentinelSnapAt = d.U64()

	if err := present(d, s.tel != nil, "telemetry"); err != nil {
		return err
	}
	if s.tel != nil {
		if err := s.tel.LoadState(d); err != nil {
			return err
		}
	}
	return d.Err()
}
