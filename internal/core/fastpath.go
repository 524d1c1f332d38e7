package core

import (
	"math"

	"tridentsp/internal/cpu"
	"tridentsp/internal/isa"
	"tridentsp/internal/memsys"
	"tridentsp/internal/telemetry"
)

// This file implements the first level of the simulator's fast path: the
// event horizon. The framework is event-driven — chaos edges, watchdog
// probes, pending optimizations and helper-thread completions all fire at
// known future cycles — yet the reference loop re-checks every one of them
// after every committed instruction. fastForward instead computes the
// nearest cycle at which anything non-CPU can happen and retires whole
// superblocks (cpu.BlockCache) up to that horizon, running the event
// machinery once per batch at exactly the instruction boundary the one-step
// loop would have used. A fill arriving is not such an event: only a later
// access reads its ready cycle, and the fast probe sends every access that
// could (its line still in the MSHR table, or the table full) through the
// full hierarchy call at its own cycle.
//
// Since the superblock engine, batches carry memory operations and loop
// back-edges too. The core-side monitoring the slow path performs per
// instruction (DLT/VPT updates for in-trace loads, branch profiling in
// original code, traversal timing at trace loop-backs) reaches the batch
// through cpu.SBHooks, each hook a call to the same function step() uses
// (monitorLoad, profileCondBranch, recordTraversal), and each batch ends in
// the same endCommit step() runs after every instruction. A load the L1-hit
// probe declines (miss, partial hit, MSHR pressure) retires inside the batch
// through Step's own access and stall charge, and the batch ends right after
// it, so the batch-end work runs where step() would have run its per-step
// work. The remaining slow-path set is FDIV, jumps, trace entries and exits,
// patched words, stores under MSHR pressure, and hooked instructions that
// could cross the horizon. A batch also ends after any instruction whose
// monitoring raised a helper event, so the pump dispatches at the same cycle
// the slow path would have.
//
// Equivalence contract (enforced by TestFastPathDifferential): step()
// executes one instruction and then processes whatever became due at the
// post-commit cycle. ExecSuperBlock stops after the first instruction whose
// commit crosses the horizon or the weight budget, or after a declined load.
// Of step()'s due-checks only chaos edges precede the load and branch
// monitoring; the pump, interference toggle and watchdog run after it, in
// endCommit. So hooked instructions pre-stop when they might
// cross the horizon, and a hooked declined load, whose stall is unknown
// before it commits, pre-stops whenever a chaos schedule is attached
// (SBHooks.StopBeforeMiss). The batch-end processing below then observes the
// same cycle, the same origInstrs, and the same machine state as the slow
// path's per-step processing — bit for bit.

// eventHorizon returns the earliest future cycle at which any non-CPU
// machinery can act, given the current cycle: a chaos edge, a watchdog
// probe, the pending apply, or the helper going idle. MaxInt64 means
// "nothing scheduled": execution may batch freely until code-driven work (a
// trace boundary, a patched word, an instruction no batch admits, a declined
// load) ends the batch anyway.
func (s *System) eventHorizon(now int64) int64 {
	hz := int64(math.MaxInt64)
	if s.chaosRun != nil {
		if v := s.chaosRun.NextAt(); v < hz {
			hz = v
		}
	}
	if s.monitor != nil {
		if v := s.monitor.NextAt(); v < hz {
			hz = v
		}
	}
	if s.cfg.Trident {
		if s.pending != nil && s.pending.at < hz {
			hz = s.pending.at
		}
		// The helper completing changes state in three ways: a pending
		// apply fires (capped above), the interference tax toggles off, and
		// a queued event can dispatch. The latter two anchor to BusyUntil.
		bu := s.helper.BusyUntil()
		busy := now < bu
		if (busy || s.interfering || (s.queue.Len() > 0 && s.pending == nil)) && bu < hz {
			hz = bu
		}
	}
	return hz
}

// fastForward retires instructions on the fast path until the next slow-step
// condition: an instruction the batch executor cannot prove equivalent, a
// trace entry, a patched word, or the instruction budget — or until the
// divergence sentinel, which ticks only between sessions, has work. Event
// boundaries (the horizon) and declined loads end a batch but not the fast
// path — processing runs and batching resumes.
func (s *System) fastForward(limit uint64) {
	if s.cfg.DisableFastPath {
		return
	}
	t := s.thread
	// Engine telemetry (path-dependent by nature, so it lives in the engine
	// ring): one FastEnter when the session first batches an instruction, one
	// FastExit with the reason the session handed control back to step().
	// Zero-batch sessions still count toward the exit-reason histogram — they
	// measure how often the fast path is attempted but declines outright.
	var (
		entered     bool
		entryCycle  int64
		entryInstrs uint64
	)
	exit := telemetry.FPNeedSlow
	hz := s.eventHorizon(t.Now())
loop:
	for {
		if t.Halted() {
			exit = telemetry.FPHalted
			break loop
		}
		pc := t.PC()
		var (
			blk     cpu.Block
			cb      *cpu.CompiledBlock
			ok      bool
			inTrace bool
			hooks   *cpu.SBHooks
		)
		if s.cache.Contains(pc) {
			// In-trace batching covers the placement already being
			// traversed, including launches at its head: the loop-back
			// traversal record is deferred (sbHeadPending) until the batch
			// proves the head actually retired. First entries (curPl still
			// elsewhere) carry entry-tracking side effects and stay slow.
			pl := s.curPl
			if pl == nil || pc < pl.Start || pc >= pl.End {
				exit = telemetry.FPTraceEntry
				break loop
			}
			if pc == pl.Start && !s.inTraversal {
				exit = telemetry.FPTraceEntry
				break loop
			}
			if s.cfg.JIT {
				// Launch-hot path: a resident chain that stays inside the
				// placement needs no block derivation at all.
				if fast := s.cache.CompiledAt(pc); fast != nil &&
					pc+uint64(fast.Len())*isa.WordSize <= pl.End {
					cb, ok = fast, true
				} else {
					blk, cb, ok = s.cache.BlockAtJIT(pc, s.cfg.JITThreshold)
				}
			} else {
				blk, ok = s.cache.BlockAt(pc)
			}
			if !ok {
				exit = telemetry.FPNoBlock
				break loop
			}
			// A block must not run past this placement's end into an
			// adjacently placed trace (possible only if a trace ends in a
			// straight-line instruction, but cheap to guarantee here).
			if maxLen := int((pl.End - pc) / 8); len(blk.Insts) > maxLen {
				blk.Insts = blk.Insts[:maxLen]
				blk.Weights = blk.Weights[:maxLen]
				// The compiled chain covers the untruncated block; the
				// truncated remainder runs on the interpreter.
				cb = nil
			}
			inTrace = true
			hooks = &s.sbTraceHooks
			s.sbPl, s.sbEntry = pl, pc
			s.sbHeadPending, s.sbHeadAt = pc == pl.Start, s.lastNow
		} else if s.isPatched(pc) {
			exit = telemetry.FPPatched
			break loop
		} else {
			if s.cfg.JIT {
				if cb = s.live.CompiledAt(pc); cb != nil {
					ok = true
				} else {
					blk, cb, ok = s.live.BlockAtJIT(pc, s.cfg.JITThreshold)
				}
			} else {
				blk, ok = s.live.BlockAt(pc)
			}
			if !ok {
				exit = telemetry.FPNoBlock
				break loop
			}
			if s.cfg.Trident {
				hooks = &s.sbOrigHooks
			}
		}

		// Weight budget: stop exactly where the slow loop would — at the
		// instruction that reaches the run limit. An armed sentinel's next
		// window boundary caps it too (see sentinelTarget).
		budget := limit - s.origInstrs
		if at, ok := s.sentinelTarget(); ok && at > s.origInstrs && at-s.origInstrs < budget {
			budget = at - s.origInstrs
		}

		if s.tel != nil && !entered {
			entered = true
			entryCycle = t.Now()
			entryInstrs = s.origInstrs
			s.tel.Emit(telemetry.KindFastEnter, entryCycle, pc, 0, 0, 0)
		}
		// Tier dispatch: a promoted block retires through its compiled
		// closure chain, everything else through the interpreting batch
		// executor. Both are bit-identical, so promotion timing is
		// architecturally invisible.
		var ex cpu.SBExec
		if cb != nil {
			ex = t.ExecCompiled(cb, budget, hz, hooks)
		} else {
			ex = t.ExecSuperBlock(blk, budget, hz, hooks)
		}
		if inTrace && ex.NeedSlow && t.PC() == s.sbPl.Start {
			// The head pre-stopped, at launch or after a fold: it retires
			// through step(), whose trackTraversal records the deferred
			// traversal at the same cycle.
			s.sbHeadPending = false
		}
		if ex.N == 0 {
			// The first instruction already needs the slow path: nothing
			// committed, nothing to process.
			exit = telemetry.FPFirstSlow
			break loop
		}
		now := t.Now()

		// Batch-end processing: the same due-checks step() runs after every
		// instruction, in the same order — chaos edges first (an eviction
		// edge can retire a placement), endCommit last. Each is a no-op
		// unless its event actually came due at this boundary.
		if s.chaosRun != nil && now >= s.chaosRun.NextAt() {
			for _, ed := range s.chaosRun.Due(now) {
				s.applyChaosEdge(ed)
			}
		}
		s.origInstrs += ex.Weight
		if s.faultAt != 0 && s.origInstrs >= s.faultAt {
			// Injected fast-path corruption (InjectFastPathFault): perturb
			// one register at a batch boundary, exactly where real decoded-
			// block corruption would surface. One-shot; never serialized, so
			// a sentinel healing replay is clean.
			s.faultAt = 0
			r := isaReg(s.faultReg)
			t.SetReg(r, t.Reg(r)^s.faultMask)
		}
		if inTrace {
			// The head retired after a launch or after the last fold:
			// that closed a traversal (trackTraversal's loop-back arm).
			s.flushHeadRecord()
		} else if s.curPl != nil {
			// First original-code instruction after a trace exit.
			s.curPl = nil
			s.inTraversal = false
		}
		// Miss accounting, deferred from the batch: the slow path counts
		// per load, but nothing inside the machine reads the count. Its
		// readers, results() (Results.MissesTotal, the misses_total gauge)
		// and a checkpoint, run only after Run returns.
		s.stats.missesTotal += uint64(ex.WouldMiss)
		tier := tierBatch
		if cb != nil {
			tier = tierJIT
		}
		s.endCommit(tier, ex.Weight, now)
		if ex.NeedSlow || s.origInstrs >= limit {
			if s.origInstrs >= limit {
				exit = telemetry.FPLimit
			}
			break loop
		}
		if s.sentinelDue() {
			// The sentinel ticks only between sessions (Run's loop), so a
			// session that could otherwise batch to the run limit hands
			// back at the first boundary where a window opens or closes.
			exit = telemetry.FPSentinel
			break loop
		}
		hz = s.eventHorizon(now)
	}
	if s.tel != nil {
		s.fpReasons[exit].Inc()
		if entered {
			s.tel.Emit(telemetry.KindFastExit, t.Now(), t.PC(), uint64(entryCycle),
				int64(exit), int64(s.origInstrs-entryInstrs))
		}
	}
}

// initSBHooks binds the batch-observation hooks once at construction (the
// method values and the closure allocate); each calls the function step()
// uses for the same instruction, and its result (an event was queued) stops
// the batch.
func (s *System) initSBHooks() {
	s.sbTraceHooks = cpu.SBHooks{
		Load: func(pc, addr, value uint64, res memsys.Result, now int64) bool {
			return s.monitorLoad(s.sbPl, pc, addr, value, res, now)
		},
		LoopBack: s.sbLoopBack,
		// step() applies due chaos edges before monitorLoad, so a hooked
		// miss, whose commit cycle is unknown until it runs, retires in the
		// batch only when no chaos schedule is attached.
		StopBeforeMiss: s.chaosRun != nil,
	}
	s.sbOrigHooks = cpu.SBHooks{
		Branch: s.profileCondBranch,
	}
}

// flushHeadRecord issues the deferred traversal record. The slow path
// records when the head instruction commits, using the cycle of the
// instruction *before* it (s.lastNow), which sbHeadAt holds: the pre-batch
// cycle for a head launch, the branch's post-commit cycle for a fold.
func (s *System) flushHeadRecord() {
	if !s.sbHeadPending {
		return
	}
	s.sbHeadPending = false
	s.recordTraversal(s.sbPl, s.sbHeadAt)
}

// sbLoopBack fires when a batched trace fold is about to re-execute the
// block entry. When the entry is the trace head this is trackTraversal's
// loop-back: the record pending from the launch or the previous fold
// flushes (its head retired), and the traversal the branch just closed is
// deferred in turn, because the head can still pre-stop and then retire
// through step(), which records it itself.
func (s *System) sbLoopBack(now int64) {
	if s.sbEntry != s.sbPl.Start {
		return
	}
	s.flushHeadRecord()
	s.sbHeadPending, s.sbHeadAt = true, now
}
