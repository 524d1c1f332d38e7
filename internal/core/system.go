package core

import (
	"fmt"

	"tridentsp/internal/branchpred"
	"tridentsp/internal/chaos"
	"tridentsp/internal/cpu"
	"tridentsp/internal/dlt"
	"tridentsp/internal/hwpref"
	"tridentsp/internal/isa"
	"tridentsp/internal/memsys"
	"tridentsp/internal/prefetch"
	"tridentsp/internal/program"
	"tridentsp/internal/streambuf"
	"tridentsp/internal/telemetry"
	"tridentsp/internal/trace"
	"tridentsp/internal/trident"
)

func isaReg(v uint8) isa.Reg { return isa.Reg(v) }

// codeCacheOffset places the code cache well above any program image.
const codeCacheOffset = 64 << 20

// System is one simulated machine running one program.
type System struct {
	cfg Config

	pristine *program.Program
	mem      *program.Memory
	// image is the program's immutable paged data image: the copy-on-write
	// base mem was cloned from, and the diff base for region-of-interest
	// checkpoints (SaveROI). Shared read-only across every run of the same
	// workload master.
	image  *program.Memory
	hier   *memsys.Hierarchy
	sb     *streambuf.StreamBuffers
	hwp    *hwpref.Selector
	bp     *branchpred.Predictor
	live   *cpu.ProgramSpace
	cache  *trident.CodeCache
	thread *cpu.Thread

	prof   *trident.Profiler
	watch  *trident.WatchTable
	table  *dlt.Table
	vpt    *trident.VPT
	queue  *trident.Queue
	helper *trident.Helper
	opt    *prefetch.Optimizer

	// Execution-loop state. patched is a bitmap over the original code
	// segment (one entry per instruction word) marking trace-head words
	// rewritten into branches; the per-step membership probe was a map
	// lookup on the hot path.
	curPl          *trident.Placement
	traversalStart int64
	inTraversal    bool
	lastNow        int64
	patched        []bool
	patchedBase    uint64
	apply          func(now int64) error
	applyAt        int64
	interfering    bool

	// Telemetry (nil without cfg.Telemetry; every Emit through a nil
	// tracer is one branch). fpReasons counts fast-path exit reasons —
	// the slow-path trigger histogram.
	tel       *telemetry.Tracer
	fpReasons [telemetry.NumFPReasons]*telemetry.Counter

	// Superblock batch state (fastpath.go). sbPl/sbEntry describe the batch
	// being executed so the SBHooks (bound once in sbTraceHooks/sbOrigHooks)
	// can observe it; sbHeadPending defers a trace-head traversal record
	// until the batch proves the head instruction retired.
	sbTraceHooks  cpu.SBHooks
	sbOrigHooks   cpu.SBHooks
	sbPl          *trident.Placement
	sbEntry       uint64
	sbHeadPending bool

	// Trace back-out bookkeeping (per live trace ID).
	activity map[int]*traceActivity

	// Fault injection (nil without cfg.Chaos).
	chaosRun    *chaos.Run
	monitor     *chaos.Monitor
	shadow      *System // lockstep unoptimized twin for transparency checks
	latFactors  []int64 // active latency multipliers (overlapping windows)
	assocLimits []int   // active DLT associativity squeezes

	// aborted is the Run-abort reason ("" while healthy).
	aborted string

	// Divergence sentinel (sentinel.go; armed by cfg.SentinelEvery).
	// sentinelSnap holds the serialized state at the open window's start;
	// nil means no window is open and the next one opens at sentinelNextAt
	// original instructions. faultAt is the test hook for injecting a
	// fast-path corruption; deliberately not serialized, so the sentinel's
	// healing replay is clean.
	sentinelNextAt uint64
	sentinelSnap   []byte
	sentinelSnapAt uint64
	faultAt        uint64
	faultReg       uint8
	faultMask      uint64

	// Phase detection state.
	phaseMarkInstrs uint64
	phaseMarkMisses uint64
	phaseRate       float64
	phaseRateValid  bool

	// Accounting. origInstrs counts original instructions retired by detailed
	// execution; ffwdInstrs counts those advanced functionally by FastForward
	// (sampled runs, DESIGN §14). Total program progress is their sum.
	origInstrs uint64
	ffwdInstrs uint64
	stats      runStats

	// Per-tier residency (DESIGN §13): weighted instructions and cycles
	// retired on the reference loop, the interpreting batch engine, and the
	// JIT tier. Engine-class telemetry: exported through the metrics
	// registry only, never part of Results and never serialized, so reports
	// stay byte-identical across engine choices and restores.
	tiers [numTiers]tierStat
}

// Execution tiers (tierStat indices).
const (
	tierSlow  = iota // reference one-step loop
	tierBatch        // superblock interpreter (ExecSuperBlock)
	tierJIT          // compiled closure chains (ExecCompiled)
	numTiers
)

// tierStat is one tier's residency counters.
type tierStat struct {
	instrs uint64 // weighted (original) instructions retired
	cycles uint64 // cycles the clock advanced while this tier retired
}

// tierNames label the tiers in the metrics registry.
var tierNames = [numTiers]string{"slow", "batch", "jit"}

// runStats accumulates core-level statistics during Run.
type runStats struct {
	tracesFormed      uint64
	tracesBackedOut   uint64
	tracesSpecialized uint64
	phaseClears       uint64
	missesTotal       uint64
	missesInTrace     uint64
	missesCovered     uint64
	loadsInTrace      uint64
	loadsTotal        uint64
	applyErrors       uint64
	traceTraversal    uint64
	sentinelChecks    uint64
	sentinelTrips     uint64
}

// traceActivity tracks a loop trace's usefulness for the back-out policy.
type traceActivity struct {
	entries    uint64
	traversals uint64
	hasLoop    bool
	hasLoopSet bool
}

// NewSystem builds a machine for the program. The configuration must pass
// Config.Validate; NewSystem panics on an invalid one (matching the
// substrate constructors — an invalid machine cannot produce meaningful
// results). CLIs validate first for friendly errors.
func NewSystem(cfg Config, prog *program.Program) *System {
	if err := cfg.Validate(); err != nil {
		panic("core: invalid config: " + err.Error())
	}
	s := &System{
		cfg:         cfg,
		pristine:    prog.Pristine(),
		mem:         program.NewMemory(prog),
		image:       prog.Image(),
		hier:        memsys.New(cfg.Mem),
		bp:          branchpred.New(branchpred.DefaultConfig()),
		patched:     make([]bool, len(prog.Code)),
		patchedBase: prog.Base,
		activity:    make(map[int]*traceActivity),
	}
	// Trace formation re-walks the same hot words on every event; decode
	// the pristine image once instead of per fetch.
	s.pristine.Predecode()
	if cfg.Telemetry != nil {
		s.initTelemetry(*cfg.Telemetry)
	}
	if sc, ok := cfg.streambufConfig(); ok {
		s.sb = streambuf.New(sc, s.hier)
		s.hier.SetPrefetcher(s.sb)
	} else if hwp := cfg.buildArsenal(s.hier); hwp != nil {
		s.hwp = hwp
		s.hwp.SetTracer(s.tel)
		s.hier.SetPrefetcher(s.hwp)
	}
	s.live = cpu.NewProgramSpace(prog)
	s.cache = trident.NewCodeCache(prog.CodeEnd() + codeCacheOffset)
	s.thread = cpu.New(cfg.CPU, s, prog.Entry, s.mem, s.hier, s.bp)

	if cfg.Trident {
		s.prof = trident.NewProfiler(cfg.Profiler)
		s.watch = trident.NewWatchTable(cfg.WatchCapacity)
		s.table = dlt.New(cfg.DLT)
		s.queue = trident.NewQueue(cfg.EventQueueCap)
		s.helper = trident.NewHelper(cfg.Cost)
		if cfg.ValueSpecialize {
			s.vpt = trident.NewVPT(cfg.VPT)
		}
		if cfg.SW != SWOff {
			s.opt = prefetch.New(cfg.prefetchConfig(), s.table, s.cache,
				s.watch, linkerFunc(s.linkTrace), cfg.Cost)
		}
		if s.tel != nil {
			s.table.SetTracer(s.tel)
			s.queue.SetTracer(s.tel)
			s.helper.SetTracer(s.tel)
			if s.opt != nil {
				s.opt.SetTracer(s.tel)
			}
		}
	}
	if cfg.Chaos != nil {
		s.chaosRun = cfg.Chaos.Start()
		if cfg.ChaosMonitorEvery > 0 {
			s.attachWatchdog()
		}
	}
	s.sentinelNextAt = cfg.SentinelEvery
	s.initSBHooks()
	return s
}

// linkerFunc adapts a function to prefetch.Linker.
type linkerFunc func(startPC, addr uint64) error

func (f linkerFunc) LinkTrace(startPC, addr uint64) error { return f(startPC, addr) }

// Fetch implements cpu.CodeSpace, composing the code cache over the live
// (patched) program image.
func (s *System) Fetch(pc uint64) (isa.Inst, bool) {
	if s.cache.Contains(pc) {
		return s.cache.Fetch(pc)
	}
	return s.live.Fetch(pc)
}

// linkTrace patches the original binary so startPC branches into the code
// cache. In the §5.1 overhead experiment (LinkTraces=false) it is a no-op:
// the optimizer does all its work but execution never uses it.
func (s *System) linkTrace(startPC, addr uint64) error {
	if !s.cfg.LinkTraces {
		return nil
	}
	br := isa.Inst{Op: isa.BR, Rd: isa.ZeroReg, Imm: isa.BranchDisp(startPC, addr)}
	w, err := isa.EncodeChecked(br)
	if err != nil {
		return err
	}
	if err := s.live.Patch(startPC, w); err != nil {
		return err
	}
	s.setPatched(startPC, true)
	return nil
}

// isPatched reports whether the original-code word at pc carries a trace
// link patch. PCs outside the original image (the code cache) are never
// patched.
func (s *System) isPatched(pc uint64) bool {
	i := (pc - s.patchedBase) / isa.WordSize
	return pc >= s.patchedBase && i < uint64(len(s.patched)) && s.patched[i]
}

func (s *System) setPatched(pc uint64, v bool) {
	if i := (pc - s.patchedBase) / isa.WordSize; pc >= s.patchedBase && i < uint64(len(s.patched)) {
		s.patched[i] = v
	}
}

// Thread exposes the main hardware context (register setup for workloads).
func (s *System) Thread() *cpu.Thread { return s.thread }

// Hierarchy exposes the memory system (examples and tests inspect stats).
func (s *System) Hierarchy() *memsys.Hierarchy { return s.hier }

// Optimizer exposes the prefetch optimizer (nil when SW is off).
func (s *System) Optimizer() *prefetch.Optimizer { return s.opt }

// DLT exposes the delinquent load table (nil without Trident).
func (s *System) DLT() *dlt.Table { return s.table }

// HWPref exposes the arsenal prefetch selector (nil unless Config.HW
// selects an arsenal backend); the determinism and re-convergence suites
// compare its decision log.
func (s *System) HWPref() *hwpref.Selector { return s.hwp }

// Run executes until origInstrs original instructions have committed (or
// the program halts), returning the results. When LivelockWindow is set
// and no original instruction commits for that many cycles (a self-loop
// after a bad patch can spin forever without retiring original work), the
// run is aborted with the reason in Results.Aborted. Run is resumable: a
// later call with a higher limit continues the same machine.
func (s *System) Run(limit uint64) Results {
	s.syncShadowInit()
	if s.cfg.LivelockWindow == 0 {
		// No livelock detection: skip the per-step progress bookkeeping
		// entirely.
		for s.origInstrs < limit && !s.thread.Halted() && s.aborted == "" {
			s.sentinelTick()
			s.fastForward(limit)
			if s.origInstrs >= limit || s.thread.Halted() {
				break
			}
			if s.sentinelDue() {
				continue // the session handed back for the sentinel's tick
			}
			s.step()
		}
		return s.results()
	}
	lastInstrs := s.origInstrs
	lastProgress := s.thread.Now()
	for s.origInstrs < limit && !s.thread.Halted() && s.aborted == "" {
		s.sentinelTick()
		// Fast-path batches always retire original instructions or stop at
		// an event boundary within a trace; either way they count as
		// progress checkpoints just like the slow steps below.
		s.fastForward(limit)
		if s.origInstrs != lastInstrs {
			lastInstrs = s.origInstrs
			lastProgress = s.thread.Now()
		}
		if s.origInstrs >= limit || s.thread.Halted() {
			break
		}
		if s.sentinelDue() {
			continue
		}
		s.step()
		if s.origInstrs != lastInstrs {
			lastInstrs = s.origInstrs
			lastProgress = s.thread.Now()
		} else if s.thread.Now()-lastProgress >= s.cfg.LivelockWindow {
			s.aborted = fmt.Sprintf(
				"livelock: no original-instruction progress for %d cycles (pc=%#x, cycle=%d)",
				s.thread.Now()-lastProgress, s.thread.PC(), s.thread.Now())
		}
	}
	return s.results()
}

// step advances the machine by one committed instruction.
func (s *System) step() {
	info := s.thread.Step()
	if info.Halted {
		return
	}
	pc := info.PC
	now := info.Now
	instrsBefore := s.origInstrs

	// Fault injection: apply every chaos edge that has come due.
	if s.chaosRun != nil && now >= s.chaosRun.NextAt() {
		for _, ed := range s.chaosRun.Due(now) {
			s.applyChaosEdge(ed)
		}
	}

	// Placement tracking: which hot trace (if any) is executing. The
	// containment probe is resolved once and reused by the branch-profiling
	// filter below.
	var pl *trident.Placement
	inCache := s.cache.Contains(pc)
	if inCache {
		if s.curPl != nil && pc >= s.curPl.Start && pc < s.curPl.End {
			pl = s.curPl
		} else if p, ok := s.cache.PlacementAt(pc); ok {
			pl = p
		}
	}

	// Original-instruction accounting (§4.1).
	switch {
	case pl != nil:
		s.origInstrs += uint64(s.cache.Weight(pc))
	case s.isPatched(pc):
		// The patch branch replaces an instruction the trace accounts for.
	default:
		s.origInstrs++
	}

	// Watch-table traversal timing.
	if s.cfg.Trident {
		s.trackTraversal(pl, pc, now)
	}

	// Load monitoring. Coverage statistics count "would-be misses": true
	// misses plus prefetched hits (loads that would have missed without a
	// prefetch), so Figure 4's ratios stay meaningful once prefetching
	// starts eliminating the very misses it covers.
	if info.IsLoad {
		s.stats.loadsTotal++
		if info.LoadRes.WouldMiss() {
			s.stats.missesTotal++
		}
		if s.cfg.Trident {
			s.monitorLoad(pl, pc, info.LoadAddr, info.LoadValue, info.LoadRes, now)
		}
	}

	// Branch profiling (original code only: in-trace loop branches target
	// the code cache and must not seed new traces).
	if s.cfg.Trident && pl == nil && !inCache {
		switch info.Branch {
		case cpu.BranchTaken, cpu.BranchNotTaken:
			s.profileCondBranch(pc, &info.Inst, info.Branch == cpu.BranchTaken, now)
		case cpu.BranchJump:
			if info.Inst.Op == isa.BR {
				s.prof.OnJump(pc, isa.BranchTarget(pc, info.Inst))
			}
		}
	}

	s.curPl = pl
	s.endCommit(tierSlow, s.origInstrs-instrsBefore, now)
}

// endCommit is the post-commit boundary work both execution loops share,
// run once the instructions retired by tier (weight instrs, ending at cycle
// now) are accounted for: the phase check, the helper-thread pump and its
// interference toggle, tier residency, and the watchdog probe. step() calls
// it after every instruction; fastForward after every batch, at exactly the
// boundary the one-step loop would have reached.
func (s *System) endCommit(tier int, instrs uint64, now int64) {
	if s.cfg.Trident {
		// Phase detection: a shifted miss rate re-arms matured loads.
		if s.cfg.PhaseClearMature &&
			s.origInstrs-s.phaseMarkInstrs >= s.cfg.PhaseWindow {
			s.checkPhase(now)
		}
		// Helper thread: apply finished optimizations, start new ones.
		s.pump(now)
		busy := s.helper.Busy(now)
		if busy != s.interfering {
			s.interfering = busy
			s.thread.SetInterference(busy)
		}
	}

	// Tier residency (engine-class): s.lastNow still holds the cycle before
	// this commit.
	s.tiers[tier].instrs += instrs
	if d := now - s.lastNow; d > 0 {
		s.tiers[tier].cycles += uint64(d)
	}
	s.lastNow = now

	// Invariant watchdog probe (chaotic runs only).
	if s.monitor != nil && now >= s.monitor.NextAt() {
		s.monitor.Tick(now)
	}
}

// checkPhase compares the last window's miss rate against the previous
// window's; a large relative change clears the DLT's mature flags (§3.5.2's
// future-work suggestion). now stamps the telemetry event.
func (s *System) checkPhase(now int64) {
	dInstrs := s.origInstrs - s.phaseMarkInstrs
	dMisses := s.stats.missesTotal - s.phaseMarkMisses
	s.phaseMarkInstrs = s.origInstrs
	s.phaseMarkMisses = s.stats.missesTotal
	rate := float64(dMisses) / float64(dInstrs)
	defer func() { s.phaseRate, s.phaseRateValid = rate, true }()
	if !s.phaseRateValid {
		return
	}
	ref := s.phaseRate
	if ref < 1e-6 {
		ref = 1e-6
	}
	if rate > ref*(1+s.cfg.PhaseDelta) || rate < ref*(1-s.cfg.PhaseDelta) {
		n := s.table.ClearAllMature()
		if s.opt != nil {
			s.opt.ClearMaturity()
		}
		s.stats.phaseClears++
		s.tel.Emit(telemetry.KindPhaseClear, now, 0, 0, int64(n), 0)
	}
}

// trackTraversal updates the watch table's per-traversal timing: a
// traversal completes when the trace loops back to its own start.
func (s *System) trackTraversal(pl *trident.Placement, pc uint64, now int64) {
	switch {
	case pl == nil:
		s.inTraversal = false
	case pl != s.curPl:
		// Entered a trace.
		s.traversalStart = s.lastNow
		s.inTraversal = true
		if pl.Live {
			if _, ok := s.watch.ByID(pl.TraceID); !ok {
				// Self-healing: the watch entry was evicted (capacity
				// pressure or an injected eviction storm) while the trace
				// stayed linked. Re-register it so timing history rebuilds
				// and delinquent events can reach the optimizer again —
				// without this an evicted trace would run unmonitored and
				// unrepairable forever.
				s.watch.Add(&trident.WatchEntry{
					StartPC: pl.Trace.StartPC,
					TraceID: pl.TraceID,
					Length:  pl.Trace.Len(),
				})
			}
		}
		if s.cfg.Backout {
			s.noteEntry(pl, now)
		}
	case pc == pl.Start && s.inTraversal:
		// Loop-back: one full traversal.
		s.recordTraversal(pl, s.lastNow)
	}
}

// recordTraversal closes one traversal of pl at cycle at: the traversal ran
// from traversalStart to at. The batch path calls it from its loop-back
// hook and its deferred head record.
func (s *System) recordTraversal(pl *trident.Placement, at int64) {
	if we, ok := s.watch.ByID(pl.TraceID); ok {
		we.RecordTraversal(at - s.traversalStart)
	}
	s.stats.traceTraversal++
	s.traversalStart = at
	if s.cfg.Backout {
		if a := s.activity[pl.TraceID]; a != nil {
			a.traversals++
		}
	}
}

// noteEntry counts a trace entry and backs the trace out if it keeps
// exiting without completing a traversal — the captured path was not the
// hot path after all, so the head is unpatched and the profiler re-armed
// to capture a better bitmap.
func (s *System) noteEntry(pl *trident.Placement, now int64) {
	a := s.activity[pl.TraceID]
	if a == nil {
		a = &traceActivity{}
		s.activity[pl.TraceID] = a
	}
	if !a.hasLoopSet {
		a.hasLoopSet = true
		for i := range pl.Trace.Insts {
			if pl.Trace.Insts[i].Kind == trace.LoopBranch {
				a.hasLoop = true
				break
			}
		}
	}
	a.entries++
	if !a.hasLoop || !pl.Live || a.entries < s.cfg.BackoutMinEntries {
		return
	}
	if float64(a.traversals) >= s.cfg.BackoutRatio*float64(a.entries) {
		return
	}
	s.backOut(pl, now)
}

// unlinkTrace detaches a placed trace from execution: the original head
// instruction is restored from the pristine image, the placement retired
// and drained (loop-back branches retargeted through the original head, so
// execution already inside it exits safely), the watch entry dropped, and
// the profiler re-armed for this head. Shared by the back-out policy and
// injected code-cache evictions; now stamps the telemetry event.
func (s *System) unlinkTrace(pl *trident.Placement, now int64) {
	head := pl.Trace.StartPC
	s.tel.Emit(telemetry.KindTraceBackOut, now, head, 0, int64(pl.TraceID), 0)
	if w, ok := s.pristine.WordAt(head); ok && s.isPatched(head) {
		if err := s.live.Patch(head, w); err == nil {
			s.setPatched(head, false)
		}
	}
	s.cache.Retire(pl.TraceID)
	if err := s.cache.RetargetLoops(pl.TraceID, head); err != nil {
		s.stats.applyErrors++
	}
	s.watch.Remove(pl.TraceID)
	s.prof.ClearFormed(head)
	if s.opt != nil {
		s.opt.ForgetTrace(head)
	}
	if s.vpt != nil {
		// A specialized trace whose guard started failing drains here;
		// re-arm the profiler's value entries so a new stable value can
		// be discovered.
		s.vpt.Despecialize()
	}
	delete(s.activity, pl.TraceID)
}

// backOut unlinks an under-performing trace (the captured path was not the
// hot path after all).
func (s *System) backOut(pl *trident.Placement, now int64) {
	s.unlinkTrace(pl, now)
	s.stats.tracesBackedOut++
}

// monitorLoad feeds the DLT for a load committed at cycle now inside
// placement pl and raises delinquent-load and invariant-load events,
// reporting whether it queued one (the batch path must then end its batch,
// so the pump dispatches the event at the same cycle the slow path's
// would). In the link-disabled overhead experiment no trace ever executes,
// so — exactly as in the paper's §5.1 setup — the DLT stays silent and only
// trace-formation events occupy the helper.
//
// loadsTotal/missesTotal are counted by the callers: step() per load, the
// batch path aggregated through cpu.SBExec. A batched load passes the same
// Result the slow path's StepInfo carries — a fast-probe hit or, as the
// batch's last instruction, a full access — so its DLT sample is the one
// computed here.
func (s *System) monitorLoad(pl *trident.Placement, pc, addr, value uint64, res memsys.Result, now int64) bool {
	if pl == nil {
		return false
	}
	idx := (pc - pl.Start) / isa.WordSize
	ti := &pl.Trace.Insts[idx]
	if ti.Inserted || ti.OrigPC == 0 {
		return false
	}
	origPC, headPC := ti.OrigPC, pl.Trace.StartPC

	s.stats.loadsInTrace++
	queued := false
	if s.vpt != nil && s.vpt.Update(origPC, value) {
		ev := trident.Event{Kind: trident.EventInvariantLoad, Raised: now, LoadPC: origPC}
		ev.Hot.StartPC = headPC
		queued = s.queue.Push(ev)
	}
	if res.WouldMiss() {
		s.stats.missesInTrace++
		if s.opt != nil && s.opt.Covered(headPC, origPC) {
			s.stats.missesCovered++
		}
	}
	miss := res.L1Miss
	var missLat int64
	if miss {
		missLat = res.Latency
	}
	if !s.table.UpdateAt(origPC, addr, miss, missLat, now) {
		return queued
	}
	// Delinquent-load event. Suppressed while the trace is already being
	// re-optimized (§3.2's watch-table optimization flag).
	if s.opt == nil {
		s.table.ClearCounters(origPC)
		return queued
	}
	we, ok := s.watch.ByStart(headPC)
	if !ok || we.OptFlag {
		// Event suppressed (the trace is already being re-optimized):
		// restart this load's monitoring window, or it would stay frozen
		// forever and never raise another event.
		s.table.ClearCounters(origPC)
		return queued
	}
	ev := trident.Event{
		Kind:    trident.EventDelinquentLoad,
		Raised:  now,
		LoadPC:  origPC,
		TraceID: we.TraceID,
	}
	ev.Hot.StartPC = headPC
	if s.queue.Push(ev) {
		we.OptFlag = true
		return true
	}
	s.table.ClearCounters(origPC)
	return queued
}

// profileCondBranch feeds a conditional branch committed in original code
// (outside the code cache and every placement) to the branch profiler,
// raising a hot-trace event when it fires. It reports whether the event
// queue changed, for the same pump-timing reason as monitorLoad.
func (s *System) profileCondBranch(pc uint64, in *isa.Inst, taken bool, now int64) bool {
	target := isa.BranchTarget(pc, *in)
	if hot, fired := s.prof.OnCondBranch(pc, target, taken); fired {
		return s.enqueueHot(hot, now)
	}
	return false
}

// enqueueHot raises a hot-trace event, reporting whether the event queue
// actually changed (the fast path must end its batch then, so the pump runs
// at the same cycle the slow path's would).
func (s *System) enqueueHot(hot trident.HotTrace, now int64) bool {
	if _, exists := s.watch.ByStart(hot.StartPC); exists {
		s.prof.MarkFormed(hot.StartPC)
		return false
	}
	return s.queue.Push(trident.Event{Kind: trident.EventHotTrace, Raised: now, Hot: hot})
}

// pump applies a completed optimization and dispatches the next queued
// event to the helper thread.
func (s *System) pump(now int64) {
	if s.apply != nil && now >= s.applyAt {
		if err := s.apply(now); err != nil {
			s.stats.applyErrors++
			if DebugLog != nil {
				DebugLog("apply error: " + err.Error())
			}
		}
		s.apply = nil
	}
	if s.apply != nil || s.helper.Busy(now) {
		return
	}
	ev, ok := s.queue.Pop()
	if !ok {
		return
	}
	switch ev.Kind {
	case trident.EventHotTrace:
		s.processHotTrace(ev, now)
	case trident.EventDelinquentLoad:
		s.processDelinquent(ev, now)
	case trident.EventInvariantLoad:
		s.processInvariant(ev, now)
	}
}

// processHotTrace forms, optimizes, places, and links a new hot trace.
func (s *System) processHotTrace(ev trident.Event, now int64) {
	if _, exists := s.watch.ByStart(ev.Hot.StartPC); exists {
		// A queued duplicate: the head already has a trace.
		return
	}
	tr, err := trace.Form(s.pristine, ev.Hot.StartPC, ev.Hot.Bitmap, s.cfg.Form)
	if err != nil || tr.Len() < 3 {
		// Unformable or degenerate: charge a minimal probe cost.
		s.helper.Begin(now, s.cfg.Cost.FormBase)
		s.prof.MarkFormed(ev.Hot.StartPC)
		return
	}
	trace.Optimize(tr)
	cost := s.cfg.Cost.FormBase + s.cfg.Cost.FormPerInst*int64(tr.Len())
	done := s.helper.Begin(now, cost)
	s.applyAt = done
	s.apply = func(at int64) error {
		pl, err := s.cache.Place(tr)
		if err != nil {
			return err
		}
		s.watch.Add(&trident.WatchEntry{
			StartPC: tr.StartPC,
			TraceID: pl.TraceID,
			Length:  tr.Len(),
		})
		if s.opt != nil {
			s.opt.RegisterTrace(tr.StartPC, tr, pl.TraceID)
		}
		s.prof.MarkFormed(tr.StartPC)
		s.stats.tracesFormed++
		s.tel.Emit(telemetry.KindTraceForm, at, tr.StartPC, pl.Start,
			int64(tr.Len()), int64(pl.TraceID))
		return s.linkTrace(tr.StartPC, pl.Start)
	}
}

// DebugLog, when non-nil, receives one line per optimization event.
var DebugLog func(string)

// processInvariant value-specializes a trace around a quasi-invariant load
// (the prior Trident work's optimization). Specialization regenerates the
// trace, so it defers to prefetching when prefetch code is already placed —
// the prefetch state would not survive the rebuild.
func (s *System) processInvariant(ev trident.Event, now int64) {
	head := ev.Hot.StartPC
	we, ok := s.watch.ByStart(head)
	if !ok || we.OptFlag {
		return
	}
	pl, ok := s.cache.PlacementByID(we.TraceID)
	if !ok || !pl.Live {
		return
	}
	value, stable := s.vpt.Value(ev.LoadPC)
	if !stable {
		return
	}
	// Specialize the prefetch-free base version; any prefetch code is
	// re-inserted by later delinquent events on top of the specialized
	// body (distances restart, which the repair loop re-converges).
	var clone *trace.Trace
	if s.opt != nil {
		if base, ok := s.opt.BaseTrace(head); ok {
			clone = base
		}
	}
	if clone == nil {
		clone = pl.Trace.Clone()
	}
	idx := -1
	for i := range clone.Insts {
		if !clone.Insts[i].Inserted && clone.Insts[i].OrigPC == ev.LoadPC &&
			clone.Insts[i].Inst.Op == isa.LD {
			idx = i
			break
		}
	}
	if idx < 0 || !trace.SpecializeLoad(clone, idx, value, isaReg(s.cfg.GuardReg)) {
		return
	}
	trace.Optimize(clone)

	cost := s.cfg.Cost.FormBase + s.cfg.Cost.FormPerInst*int64(clone.Len())
	done := s.helper.Begin(now, cost)
	oldID := we.TraceID
	loadPC := ev.LoadPC
	s.applyAt = done
	s.apply = func(at int64) error {
		npl, err := s.cache.Place(clone)
		if err != nil {
			return err
		}
		s.cache.Retire(oldID)
		if err := s.cache.RetargetLoops(oldID, head); err != nil {
			return err
		}
		ne := &trident.WatchEntry{StartPC: head, TraceID: npl.TraceID, Length: clone.Len()}
		if oe, ok := s.watch.ByID(oldID); ok {
			ne.MinExecTime = oe.MinExecTime
			ne.TotalExecTime = oe.TotalExecTime
			ne.Traversals = oe.Traversals
		}
		s.watch.Remove(oldID)
		s.watch.Add(ne)
		if s.opt != nil {
			s.opt.RegisterTrace(head, clone, npl.TraceID)
		}
		s.stats.tracesSpecialized++
		s.tel.Emit(telemetry.KindTraceSpecialize, at, head, loadPC,
			int64(clone.Len()), int64(npl.TraceID))
		return s.linkTrace(head, npl.Start)
	}
}

// processDelinquent runs the prefetch optimizer for one event.
func (s *System) processDelinquent(ev trident.Event, now int64) {
	res := s.opt.ProcessEventAt(ev.Hot.StartPC, ev.LoadPC, now)
	if DebugLog != nil {
		minExec := int64(-1)
		if we, ok := s.watch.ByStart(ev.Hot.StartPC); ok {
			minExec = we.MinExecTime
		}
		DebugLog(fmt.Sprintf("delinquent head=%#x load=%#x -> %v cost=%d dist=%d minExec=%d",
			ev.Hot.StartPC, ev.LoadPC, res.Kind, res.Cost,
			s.opt.Distance(ev.Hot.StartPC, ev.LoadPC), minExec))
	}
	cost := res.Cost
	if cost <= 0 {
		cost = s.cfg.Cost.RepairCost
	}
	done := s.helper.Begin(now, cost)
	startPC := ev.Hot.StartPC
	inner := res.Apply
	s.applyAt = done
	s.apply = func(int64) error {
		if we, ok := s.watch.ByStart(startPC); ok {
			we.OptFlag = false
		}
		if inner != nil {
			return inner()
		}
		return nil
	}
}
