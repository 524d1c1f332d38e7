package core

import (
	"tridentsp/internal/isa"
	"tridentsp/internal/telemetry"
)

// The online divergence sentinel (DESIGN §12): a sampled runtime
// cross-check of the event-horizon fast path against the reference
// one-step loop. Every SentinelEvery original instructions the machine
// snapshots itself (SaveState); SentinelWindow instructions later the
// snapshot is restored into a scratch machine configured to use only the
// reference loop, replayed to the exact same instruction count, and the
// architectural digests compared. The two paths are bit-identical by
// construction, so a mismatch means real state corruption (a stale decoded
// block, a bad batch boundary, a cosmic-ray-class bug). The response is
// self-repair, in the spirit of the paper's self-healing theme: rewind to
// the snapshot (the last provably good state), quarantine every decoded
// block (the restore rebuilds both block caches from the serialized words),
// and demote the machine to the reference loop for the rest of the run —
// correctness is preserved at the cost of speed.
//
// Sampling policy: checks happen only at Run-loop boundaries where no
// optimization is pending, never while the machine is already on the
// reference loop. A window left open when the run's budget, a halt, or an
// abort intervenes is simply not verified. The no-pending gate is not
// SaveState's (a pending optimization is data): it fixes where windows open
// and close, which the telemetry stream and golden traces record.

// sentinelTarget returns the original-instruction count at which the
// sentinel next has work — opening a window (snapshot) or closing the open
// one (verify) — and false while it is disarmed. fastForward caps its batch
// budget there and ends its session once the tick is due, so the Run loop
// reaches sentinelTick on time even when nothing else would end the session.
func (s *System) sentinelTarget() (uint64, bool) {
	if s.cfg.SentinelEvery == 0 || s.cfg.DisableFastPath {
		return 0, false
	}
	if s.sentinelSnap == nil {
		return s.sentinelNextAt, true
	}
	return s.sentinelSnapAt + s.cfg.SentinelWindow, true
}

// sentinelDue reports whether sentinelTick has work at this boundary. No
// window opens or closes while an optimization is pending.
func (s *System) sentinelDue() bool {
	at, ok := s.sentinelTarget()
	return ok && s.pending == nil && s.origInstrs >= at
}

// sentinelTick opens or closes a sentinel window at a Run-loop boundary.
func (s *System) sentinelTick() {
	if !s.sentinelDue() {
		return
	}
	if s.sentinelSnap != nil {
		s.sentinelVerify()
		return
	}
	blob, err := s.SaveState()
	if err != nil {
		return
	}
	s.sentinelSnap = blob
	s.sentinelSnapAt = s.origInstrs
}

// sentinelVerify replays the open window through the reference loop and
// compares digests, healing on divergence.
func (s *System) sentinelVerify() {
	snap := s.sentinelSnap
	target := s.origInstrs
	window := int64(target - s.sentinelSnapAt)

	scratch := NewSystem(s.sentinelConfig(), s.pristine.ClonePristine())
	if err := scratch.RestoreState(snap); err != nil {
		// A snapshot this machine just produced failing to restore is a
		// harness defect, not a simulation divergence; drop the window.
		s.sentinelSnap = nil
		s.sentinelNextAt = s.origInstrs + s.cfg.SentinelEvery
		return
	}
	// The replay performs the identical per-instruction original-weight
	// increments, so it lands exactly on target.
	scratch.Run(target)
	// The fast path stops at batch boundaries and may have retired trailing
	// zero-weight instructions (patch jumps into traces, inserted prefetch
	// code) beyond the last weighted one; the reference loop stops at the
	// earliest point where target is reached. Retire the same trailing
	// zero-weight instructions on the replay so both machines compare at the
	// identical committed-instruction boundary. A weighted instruction here
	// pushes origInstrs past target — a genuine divergence the digest check
	// below reports.
	for scratch.origInstrs == target &&
		scratch.thread.Committed() < s.thread.Committed() &&
		!scratch.thread.Halted() {
		scratch.step()
	}
	if scratch.origInstrs == target && s.sentinelDigestEqual(scratch) {
		s.stats.sentinelChecks++
		s.tel.Emit(telemetry.KindSentinelCheck, s.thread.Now(), s.thread.PC(),
			s.sentinelSnapAt, window, 0)
		s.sentinelSnap = nil
		s.sentinelNextAt = s.origInstrs + s.cfg.SentinelEvery
		return
	}

	// Divergence. Rewind first: the snapshot is the last provably good
	// state, and restoring it also rebuilds both decoded-block caches from
	// the serialized words — the quarantine. Config is not serialized, so
	// the demotion below survives the rewind.
	divergedPC := s.thread.PC()
	if err := s.restore(snap); err != nil {
		// Cannot rewind (the machine may be partially restored): all that
		// is left is to stop trusting the fast path.
		s.demoteFastPath()
		s.aborted = "sentinel: divergence detected and rewind failed: " + err.Error()
		return
	}
	s.stats.sentinelChecks++
	s.stats.sentinelTrips++
	s.tel.Emit(telemetry.KindSentinelDivergence, s.thread.Now(), divergedPC,
		s.sentinelSnapAt, window, int64(s.stats.sentinelTrips))
	s.sentinelSnap = nil
	s.sentinelNextAt = s.origInstrs + s.cfg.SentinelEvery
	s.demoteFastPath() // also disarms this sentinel
}

// demoteFastPath quarantines both accelerated tiers for the rest of the run:
// the reference loop becomes the only executor, and every compiled closure
// chain is dropped eagerly (the lazy generation guard would never run again
// once the fast path is off, so without the drop the dead chains would stay
// pinned).
func (s *System) demoteFastPath() {
	s.cfg.DisableFastPath = true
	s.cfg.JIT = false
	s.live.DropCompiled()
	s.cache.DropCompiled()
}

// sentinelConfig derives the scratch replay machine's configuration: the
// same machine forced onto the reference loop, with the sentinel and
// livelock detection disarmed (the replay is bounded by construction).
func (s *System) sentinelConfig() Config {
	cfg := s.cfg
	cfg.DisableFastPath = true
	cfg.SentinelEvery = 0
	cfg.SentinelWindow = 0
	cfg.LivelockWindow = 0
	return cfg
}

// sentinelDigestEqual compares the architectural digest of this machine
// against the replay: every register, the PC, the clock, commit counts,
// halt state, and the full memory-system statistics.
func (s *System) sentinelDigestEqual(o *System) bool {
	if s.thread.PC() != o.thread.PC() ||
		s.thread.Now() != o.thread.Now() ||
		s.thread.Committed() != o.thread.Committed() ||
		s.thread.Halted() != o.thread.Halted() ||
		s.origInstrs != o.origInstrs ||
		s.hier.Stats != o.hier.Stats {
		return false
	}
	for r := isa.Reg(0); r < isa.NumRegs; r++ {
		if s.thread.Reg(r) != o.thread.Reg(r) {
			return false
		}
	}
	return true
}

// InjectFastPathFault arms a one-shot fault for sentinel testing: at the
// first fast-path batch boundary at or past atInstrs original instructions,
// reg is XORed with mask. The hook never fires on the reference loop and is
// not serialized, so a sentinel healing replay (and a checkpoint restore)
// is clean — exactly the "fast path silently corrupted state" failure the
// sentinel exists to catch.
func (s *System) InjectFastPathFault(atInstrs uint64, reg uint8, mask uint64) {
	s.faultAt = atInstrs
	s.faultReg = reg
	s.faultMask = mask
}
