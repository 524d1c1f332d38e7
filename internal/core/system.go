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
	pending        *pendingOpt // nil: none
	interfering    bool

	// Telemetry (nil without cfg.Telemetry; every Emit through a nil
	// tracer is one branch). fpReasons counts fast-path exit reasons —
	// the slow-path trigger histogram.
	tel       *telemetry.Tracer
	fpReasons [telemetry.NumFPReasons]*telemetry.Counter

	// Superblock batch state (fastpath.go), set when an in-trace batch
	// starts and spent when it ends, so it is never checkpointed. sbPl and
	// sbEntry describe the batch being executed so the SBHooks (bound once
	// in sbTraceHooks/sbOrigHooks) can observe it; sbHeadPending defers a
	// traversal record closing at cycle sbHeadAt until the batch proves the
	// head instruction retired.
	sbTraceHooks  cpu.SBHooks
	sbOrigHooks   cpu.SBHooks
	sbPl          *trident.Placement
	sbEntry       uint64
	sbHeadPending bool
	sbHeadAt      int64

	// Fault injection (nil without cfg.Chaos).
	chaosRun    *chaos.Run
	monitor     *chaos.Monitor
	twin        *archTwin // the transparency check's architectural twin
	latFactors  []int64   // active latency multipliers (overlapping windows)
	assocLimits []int     // active DLT associativity squeezes

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

// pendingKind is what a pending optimization does when it lands.
type pendingKind uint8

const (
	pendForm       pendingKind = iota // place a newly formed trace at head
	pendSpecialize                    // replace version oldID at head with a value-specialized one
	pendPrefetch                      // land the prefetch optimizer's insert or repair for head
	numPendingKinds
)

// pendingOpt is the optimization the helper thread is computing, as data: it
// lands (System.land) at cycle at, the helper's completion cycle.
type pendingOpt struct {
	kind   pendingKind
	at     int64
	tr     *trace.Trace // form, specialize: the version to place
	head   uint64
	oldID  int    // specialize: the version it replaces
	loadPC uint64 // specialize: the load specialized on
}

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
	tracesSpecialized uint64
	missesTotal       uint64
	missesInTrace     uint64
	missesCovered     uint64
	applyErrors       uint64
	traceTraversal    uint64
	sentinelChecks    uint64
	sentinelTrips     uint64
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
				s.watch, cfg.Cost)
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
			s.attachWatchdog(prog)
		}
	}
	s.sentinelNextAt = cfg.SentinelEvery
	s.initSBHooks()
	return s
}

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

// Optimizer exposes the prefetch optimizer (nil when SW is off).
func (s *System) Optimizer() *prefetch.Optimizer { return s.opt }

// HWPref exposes the arsenal prefetch selector (nil unless Config.HW
// selects an arsenal backend); the determinism suite compares its
// counters and residency.
func (s *System) HWPref() *hwpref.Selector { return s.hwp }

// Run executes until origInstrs original instructions have committed (or
// the program halts), returning the results. When LivelockWindow is set
// and no original instruction commits for that many cycles (a self-loop
// after a bad patch can spin forever without retiring original work), the
// run is aborted with the reason in Results.Aborted. Run is resumable: a
// later call with a higher limit continues the same machine.
func (s *System) Run(limit uint64) Results {
	s.syncTwinInit()
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
			continue // the session handed back for the sentinel's tick
		}
		s.step()
		if s.origInstrs != lastInstrs {
			lastInstrs = s.origInstrs
			lastProgress = s.thread.Now()
		} else if s.cfg.LivelockWindow > 0 && s.thread.Now()-lastProgress >= s.cfg.LivelockWindow {
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
		s.trackTraversal(pl, pc)
	}

	// Load monitoring. Coverage statistics count "would-be misses": true
	// misses plus prefetched hits (loads that would have missed without a
	// prefetch), so Figure 4's ratios stay meaningful once prefetching
	// starts eliminating the very misses it covers.
	if info.IsLoad {
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
// now) are accounted for: the helper-thread pump and its interference
// toggle, tier residency, and the watchdog probe. step() calls it after
// every instruction; fastForward after every batch, at exactly the boundary
// the one-step loop would have reached.
func (s *System) endCommit(tier int, instrs uint64, now int64) {
	if s.cfg.Trident {
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

// trackTraversal updates the watch table's per-traversal timing: a
// traversal completes when the trace loops back to its own start.
func (s *System) trackTraversal(pl *trident.Placement, pc uint64) {
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
}

// unlinkTrace detaches a placed trace from execution: the original head
// instruction is restored from the pristine image, the placement retired
// and drained (loop-back branches retargeted through the original head, so
// execution already inside it exits safely), the watch entry dropped, and
// the profiler re-armed for this head. A specialization or prefetch change
// pending for the head was computed from the unlinked trace, and landing it
// would re-link the head: it is cancelled, though the helper stays busy
// until its completion cycle. Injected code-cache evictions are the only
// caller; now stamps the telemetry event.
func (s *System) unlinkTrace(pl *trident.Placement, now int64) {
	head := pl.Trace.StartPC
	s.tel.Emit(telemetry.KindTraceBackOut, now, head, 0, int64(pl.TraceID), 0)
	if p := s.pending; p != nil && p.head == head && p.kind != pendForm {
		s.pending = nil
	}
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
		// Re-arm the profiler's value entries so a new stable value can
		// be discovered.
		s.vpt.Despecialize()
	}
}

// monitorLoad feeds the DLT for a load committed at cycle now inside
// placement pl and raises delinquent-load and invariant-load events,
// reporting whether it queued one (the batch path must then end its batch,
// so the pump dispatches the event at the same cycle the slow path's
// would). In the link-disabled overhead experiment no trace ever executes,
// so — exactly as in the paper's §5.1 setup — the DLT stays silent and only
// trace-formation events occupy the helper.
//
// missesTotal is counted by the callers: step() per load, the batch path
// aggregated through cpu.SBExec. A batched load passes the same
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

// pump lands a completed optimization and dispatches the next queued event
// to the helper thread.
func (s *System) pump(now int64) {
	if p := s.pending; p != nil && now >= p.at {
		s.pending = nil
		if err := s.land(p, now); err != nil {
			s.stats.applyErrors++
		}
	}
	if s.pending != nil || s.helper.Busy(now) {
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

// land makes the optimization p visible at cycle at.
func (s *System) land(p *pendingOpt, at int64) error {
	switch p.kind {
	case pendForm, pendSpecialize:
		pl, err := s.placeVersion(p.head, p.tr, p.oldID)
		if err != nil {
			return err
		}
		if s.opt != nil {
			s.opt.RegisterTrace(p.head, p.tr, pl.TraceID)
		}
		if p.kind == pendSpecialize {
			s.stats.tracesSpecialized++
			s.tel.Emit(telemetry.KindTraceSpecialize, at, p.head, p.loadPC,
				int64(p.tr.Len()), int64(pl.TraceID))
			return nil
		}
		s.prof.MarkFormed(p.head)
		s.stats.tracesFormed++
		s.tel.Emit(telemetry.KindTraceForm, at, p.head, pl.Start,
			int64(p.tr.Len()), int64(pl.TraceID))
	case pendPrefetch:
		if we, ok := s.watch.ByStart(p.head); ok {
			we.OptFlag = false
		}
		return s.opt.Land(s.placeVersion)
	}
	return nil
}

// placeVersion places tr as the live version of the trace at head and links
// head to it. A version oldID it replaces (0: none) is retired and drained
// through the re-patched head, and its watch entry gives way to the new
// one, seeded with the old timing so the prefetch distance bound holds.
func (s *System) placeVersion(head uint64, tr *trace.Trace, oldID int) (*trident.Placement, error) {
	pl, err := s.cache.Place(tr)
	if err != nil {
		return nil, err
	}
	ne := &trident.WatchEntry{StartPC: head, TraceID: pl.TraceID, Length: tr.Len()}
	if oldID != 0 {
		s.cache.Retire(oldID)
		if err := s.cache.RetargetLoops(oldID, head); err != nil {
			return nil, err
		}
		if oe, ok := s.watch.ByID(oldID); ok {
			ne.MinExecTime, ne.TotalExecTime, ne.Traversals = oe.MinExecTime, oe.TotalExecTime, oe.Traversals
		}
		s.watch.Remove(oldID)
	}
	s.watch.Add(ne)
	return pl, s.linkTrace(head, pl.Start)
}

// processHotTrace forms and optimizes a new hot trace; it is placed and
// linked when the helper finishes.
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
	s.pending = &pendingOpt{kind: pendForm, at: s.helper.Begin(now, cost), tr: tr, head: tr.StartPC}
}

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
	s.pending = &pendingOpt{kind: pendSpecialize, at: s.helper.Begin(now, cost), tr: clone,
		head: head, oldID: we.TraceID, loadPC: ev.LoadPC}
}

// processDelinquent runs the prefetch optimizer for one event.
func (s *System) processDelinquent(ev trident.Event, now int64) {
	res := s.opt.ProcessEvent(ev.Hot.StartPC, ev.LoadPC, now)
	cost := res.Cost
	if cost <= 0 {
		cost = s.cfg.Cost.RepairCost
	}
	s.pending = &pendingOpt{kind: pendPrefetch, at: s.helper.Begin(now, cost), head: ev.Hot.StartPC}
}
