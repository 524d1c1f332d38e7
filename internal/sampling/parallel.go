package sampling

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"tridentsp/internal/core"
	"tridentsp/internal/telemetry"
)

// The window scheduler (DESIGN §15). A sampled run's detailed windows are
// executed as *chains*: each chain seeds a private machine from the startup
// snapshot S0 (full machine state at the end of the detailed prefix),
// restores its grid slot's architectural region-of-interest checkpoint,
// replays the deterministic warm-up tail, and runs one detailed window —
// plus, while the phase trigger keeps firing, contiguous extension windows
// on the same live machine, exactly as the serial schedule would. Because a
// chain's inputs (S0, the ROI snapshot, the warm-up length) are fixed by
// the grid alone, chains are independent of each other by construction, and
// the scheduler can run them concurrently.
//
// Determinism argument. Three facts make parallel execution byte-identical
// to serial at any job count:
//
//  1. Window execution never depends on the trigger decision sequence —
//     only the *decisions* (phase flags, chain continuations) do, and those
//     are replayed by the reconciler strictly in slot order from committed
//     window signals, exactly the serial sequence.
//  2. Architectural transparency: functional fast-forward and detailed
//     execution produce identical architectural state, so the ROI snapshot
//     at a slot is the same bytes no matter which mode reached it, and a
//     halt lands at the same instruction in every execution plan.
//  3. The speculation window is frontier-deterministic: chains launch for
//     exactly the slots [frontier, frontier+specWidth(jobs)-1] and block on
//     their snapshots, so the set of chains ever launched — and therefore
//     the discarded-speculation count — is a pure function of (schedule,
//     jobs), independent of thread timing. Which launched chains execute at
//     a given moment is timing-dependent, but only admission order and CPU
//     time depend on it: a chain's window is the same computation whenever
//     it runs.
//
// Speculation that serial mode would not have scheduled (slots swallowed by
// a phase-extended chain) is discarded unconsumed and counted in
// Estimate.SpecWaste. Waste is the only jobs-dependent output; estimates,
// error bars, intervals, and the merged telemetry timeline are identical at
// every -sample-jobs.

// Options configures a Scheduler beyond the sampling schedule itself.
type Options struct {
	// Jobs bounds the window chains executing at once: restoring, warming
	// up, or running a window (≤1 = one at a time; results are
	// byte-identical either way, modulo SpecWaste). It does not bound the
	// chains launched: above one job the reconciler keeps 2·Jobs
	// speculative chains in flight, and a chain that waits for a run slot
	// or for its continuation verdict holds no CPU. The fast-forward
	// producer runs outside the bound.
	Jobs int
	// NewSystem builds a fresh worker machine identical in configuration
	// and program to the master; chains restore the startup snapshot into
	// it. It is called once per run for the producer, and for a chain only
	// when no finished chain's machine is free to recycle. Required. Must
	// be safe to call concurrently.
	NewSystem func() *core.System
	// OnCommit, when set, fires after every committed schedule step whose
	// state is snapshot-safe: each startup window and each completed chain.
	// The argument is committed program progress. A saving Checkpoint walk
	// may run from inside the callback.
	OnCommit func(progress uint64)
	// Stop, when non-nil, aborts the run at the next safe point (between
	// windows / chains) once it becomes receivable. The partial estimate
	// is still assembled; the caller decides what to do with it.
	Stop <-chan struct{}
}

// Scheduler owns one sampled run over one master System, fanning detailed
// windows across a bounded worker pool. The zero value is not usable; see
// NewScheduler.
type Scheduler struct {
	cfg  Config
	sys  *core.System // master: startup prefix + fast-forward pass
	roi  *ROICache
	opts Options

	// Serial decision-sequence state (the reconciler's view).
	nextDetailed bool
	prevSig      [numSignals]float64
	prevSigOK    bool
	phaseExtras  int
	intervals    []Interval
	specWaste    int
	err          error

	// Post-startup chain mode. windowed flips at S0; from then on the
	// estimate is assembled from s0Res plus committed chain windows.
	windowed    bool
	s0Blob      []byte
	s0Res       core.Results
	p0          uint64
	nStartupIvs int
	lastRes     core.Results // last committed chain's full machine Results
	lastEnd     uint64       // committed progress frontier
	frontier    uint64       // next grid slot to commit (resume point)

	// Outcome markers.
	haltSeen bool
	haltAt   uint64
	stopped  bool
	totalRan uint64

	// Merged telemetry: master events up to S0, then committed chain
	// events in slot order.
	masterEvents []telemetry.Event
	chainEvents  []telemetry.Event

	// Producer (fast-forward pass; see startProducer). The channels are
	// nil when no producer runs. The outcome fields are written by the
	// producer goroutine and valid once prodDone is closed.
	seed       []byte // full state the master was restored from; nil: fresh
	prodSnaps  chan slotSnap
	prodStop   chan struct{}
	prodDone   chan struct{}
	prodHalted bool
	prodHaltAt uint64
	prodEnd    uint64 // progress the producer's machine stopped at
	prodPC     uint64 // and its PC there
	prodErr    error

	// Run slots: at most Jobs chains execute at once.
	run runSlots

	// Worker machines free for the next chain (see chain).
	freeMu sync.Mutex
	free   []*core.System

	// onLaunch, when set (tests only), observes each launched slot in
	// launch order.
	onLaunch func(k uint64)
}

// NewScheduler builds a scheduler for the master sys, which must be fresh
// from NewSystem or be restored through a loading Checkpoint walk before
// Run: the producer starts its own machine from the same point. cfg is
// taken after WithDefaults; roi may be nil (no checkpoint reuse). The first
// interval is always detailed — the run starts cold exactly as an exact run
// does.
func NewScheduler(sys *core.System, cfg Config, roi *ROICache, opts Options) (*Scheduler, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if opts.NewSystem == nil {
		return nil, fmt.Errorf("sampling: Options.NewSystem is required")
	}
	if opts.Jobs < 1 {
		opts.Jobs = 1
	}
	return &Scheduler{cfg: cfg, sys: sys, roi: roi, opts: opts, nextDetailed: true,
		run: runSlots{free: opts.Jobs}}, nil
}

// specWidth is the speculation window: how many grid slots, counted from
// the frontier, have a chain launched. One job keeps the serial schedule
// (no speculation, no waste); wider runs launch twice as many chains as
// may execute, so a core freed by a chain that ends before the frontier
// chain commits finds the next slot already waiting. DESIGN §15 records
// the widths and admission orders measured against this one.
func specWidth(jobs int) int {
	if jobs <= 1 {
		return 1
	}
	return 2 * jobs
}

// Intervals returns the detailed-interval records committed so far, in slot
// order.
func (s *Scheduler) Intervals() []Interval { return s.intervals }

// Err reports a scheduler-level failure (a snapshot that passed integrity
// checks but failed structurally, or a worker seed failure). The run stops
// rather than continue from half-replaced state.
func (s *Scheduler) Err() error { return s.err }

// Events returns the run's merged telemetry stream: the master's events
// through the startup prefix, then each committed chain's events in slot
// order, renumbered into one sequence. The stream is identical at every
// jobs setting (discarded speculation contributes nothing).
func (s *Scheduler) Events() []telemetry.Event {
	var out []telemetry.Event
	if !s.windowed {
		out = append(out, s.sys.Telemetry().AllEvents()...)
	} else {
		out = append(out, s.masterEvents...)
		out = append(out, s.chainEvents...)
	}
	return telemetry.Renumber(out)
}

// Run drives the schedule to completion and returns the extrapolation.
func (s *Scheduler) Run(total uint64) Estimate {
	s.totalRan = total
	if s.windowed || total > s.cfg.Startup {
		// A budget within Startup ends inside the prefix, so no chain
		// could consume a snapshot.
		s.startProducer(total)
	}
	if !s.windowed {
		s.runStartup(total)
	}
	if s.windowed {
		s.runWindows(total)
	} else {
		s.joinProducer(false)
	}
	return s.Estimate()
}

// runStartup executes the fully detailed prefix (plus any phase-triggered
// extensions) on the master machine, then captures the startup snapshot S0
// every chain seeds from. The producer is already fast-forwarding on
// another core meanwhile (startProducer). If the budget, a halt, or an
// abort ends the run inside the prefix, the scheduler stays in master-only
// mode, the producer is stopped, and the estimate is exact.
func (s *Scheduler) runStartup(total uint64) {
	for {
		if s.err != nil || s.sys.Progress() >= total ||
			s.sys.Thread().Halted() || s.sys.Aborted() != "" {
			return
		}
		if !s.nextDetailed {
			break
		}
		if s.stopRequested() {
			s.stopped = true
			return
		}
		n := min(s.cfg.Detailed, total-s.sys.Progress())
		iv, after := runWindow(s.sys, n)
		inStartup := s.sys.Progress() < s.cfg.Startup
		phase := s.decidePhase(&iv, inStartup)
		s.intervals = append(s.intervals, iv)
		s.nextDetailed = phase || inStartup
		var p2 int64
		if phase {
			p2 = 1
		}
		s.sys.Telemetry().Emit(telemetry.KindSampleDetail, after.Cycles,
			s.sys.Thread().PC(), s.sys.Progress(), int64(iv.Instrs()), p2)
		if s.opts.OnCommit != nil {
			s.opts.OnCommit(s.sys.Progress())
		}
	}
	blob, err := s.sys.SaveState()
	if err != nil {
		s.err = fmt.Errorf("sampling: snapshot startup state: %w", err)
		return
	}
	s.s0Blob = blob
	s.s0Res = s.sys.Results()
	s.p0 = s.sys.Progress()
	s.nStartupIvs = len(s.intervals)
	s.lastRes = s.s0Res
	s.lastEnd = s.p0
	s.frontier = s.p0/s.cfg.Interval + 1
	s.windowed = true
}

// slotSnap is one grid slot's chain seed: the architectural snapshot at the
// warm-up start and the warm-up length to the window.
type slotSnap struct {
	k    uint64
	warm uint64
	blob []byte
}

// chainJob is the reconciler's handle on one running chain. Both channels
// are buffered (capacity 1) and the worker strictly alternates send-result
// / await-verdict, so neither side ever blocks the other into a deadlock;
// a discarded chain finds its false verdict already buffered.
type chainJob struct {
	slot    uint64
	results chan windowResult
	verdict chan bool
}

// windowResult is one executed window, or a chain's terminal report.
type windowResult struct {
	iv      Interval
	res     core.Results
	events  []telemetry.Event
	first   bool // first window of its chain (leads with the FF marker)
	final   bool // chain cannot continue (halt, abort, budget, error)
	empty   bool // no window ran (the program halted before it could start)
	end     uint64
	halted  bool
	aborted string
	err     error
}

// errProducerStopped marks a fast-forward-pass build interrupted by a halt
// or a stop (both already recorded by advance).
var errProducerStopped = errors.New("sampling: producer stopped")

// lastSlot is the last grid slot whose window starts before the budget.
func (s *Scheduler) lastSlot(total uint64) uint64 {
	if total == 0 {
		return 0
	}
	return (total - 1) / s.cfg.Interval
}

// runWindows executes the post-startup schedule: the producer streams slot
// snapshots, worker chains run detailed windows speculatively, and the
// reconciler (this goroutine) replays the serial decision sequence in slot
// order.
func (s *Scheduler) runWindows(total uint64) {
	I, W := s.cfg.Interval, s.cfg.Warmup
	K := s.lastSlot(total)
	if s.frontier > K && s.lastEnd == s.p0 {
		// No detailed window follows the startup prefix: the rest of the
		// budget is one functional gap. The producer covered it for halt
		// exactness; the master's stream records it as a serial gap.
		s.joinProducer(true)
		if s.prodEnd > s.p0 {
			s.sys.Telemetry().Emit(telemetry.KindSampleFF, s.lastRes.Cycles,
				s.prodPC, s.prodEnd, int64(s.prodEnd-s.p0), 0)
		}
		if s.prodHalted {
			s.noteHalt(s.prodHaltAt)
		}
		s.captureMasterEvents()
		return
	}
	s.captureMasterEvents()

	frontier := s.frontier
	snaps := map[uint64]slotSnap{}
	if frontier*I-W < s.p0 {
		// The first slot's warm-up would start inside the startup prefix.
		// It is clipped to start at p0, and only the master stands there:
		// the producer passed p0 before anyone knew where it would fall.
		snaps[frontier] = slotSnap{k: frontier, warm: frontier*I - s.p0, blob: s.sys.SaveROI()}
	}
	chains := map[uint64]*chainJob{}
	snapcOpen := true
	// fetchSnap blocks until slot k's snapshot arrives; false when the
	// producer ended (halt, stop, or error) before reaching it. Blocking
	// here — rather than launching opportunistically — is what makes the
	// launched set, and so SpecWaste, timing-independent. The producer's
	// stream may start before the frontier (slots the startup prefix
	// covered, and the clipped slot); those snapshots are dropped.
	fetchSnap := func(k uint64) (slotSnap, bool) {
		for {
			if sn, ok := snaps[k]; ok {
				return sn, true
			}
			if !snapcOpen {
				return slotSnap{}, false
			}
			sn, ok := <-s.prodSnaps
			if !ok {
				snapcOpen = false
				continue
			}
			if _, launched := chains[sn.k]; sn.k >= frontier && !launched {
				snaps[sn.k] = sn
			}
		}
	}
	launch := func(k uint64) bool {
		if _, ok := chains[k]; ok {
			return true
		}
		sn, ok := fetchSnap(k)
		if !ok {
			return false
		}
		delete(snaps, k)
		c := &chainJob{slot: k, results: make(chan windowResult, 1), verdict: make(chan bool, 1)}
		chains[k] = c
		if s.onLaunch != nil {
			s.onLaunch(k)
		}
		go s.chain(c, sn, total)
		return true
	}
	discard := func(k uint64) {
		delete(snaps, k)
		if c, ok := chains[k]; ok {
			c.verdict <- false
			delete(chains, k)
			s.specWaste++
		}
	}

	width := uint64(specWidth(s.opts.Jobs))
	for frontier <= K {
		if s.stopRequested() {
			s.stopped = true
			break
		}
		for k := frontier; k <= min(frontier+width-1, K); k++ {
			if !launch(k) {
				break
			}
		}
		c := chains[frontier]
		if c == nil {
			break // producer ended before this slot: halt, stop, or error
		}
		prevEnd := s.lastEnd
		var last windowResult
		for {
			r := <-c.results
			last = r
			if r.err != nil {
				s.err = r.err
				break
			}
			if r.empty {
				break
			}
			phase := s.commit(r, prevEnd)
			if r.final {
				break
			}
			if phase {
				c.verdict <- true
				continue
			}
			c.verdict <- false
			break
		}
		delete(chains, frontier)
		if last.halted {
			s.noteHalt(last.end)
		}
		if s.err != nil || last.empty || last.halted || last.aborted != "" {
			break
		}
		newFrontier := last.end/I + 1
		for k := frontier + 1; k < newFrontier; k++ {
			discard(k)
		}
		frontier = newFrontier
		s.frontier = frontier
		if s.opts.OnCommit != nil {
			s.opts.OnCommit(last.end)
		}
	}

	// Wind down. A schedule that ran out of slots lets the producer cover
	// the final gap; any other end stops it. Chains the replayed schedule
	// never consumed are discarded.
	s.joinProducer(frontier > K)
	for k := range chains {
		discard(k)
	}
	if s.err == nil && s.prodErr != nil {
		s.err = s.prodErr
	}
	if s.prodHalted {
		s.noteHalt(s.prodHaltAt)
	}
	s.finalizeEvents(total)
}

// finalizeEvents appends the schedule-level tail markers: the final gap's
// fast-forward marker (no chain stands in that gap, but the serial timeline
// records it) and the speculation-waste marker. Both are deterministic for
// a fixed jobs setting; the waste marker is the one event whose payload is
// jobs-dependent by design.
func (s *Scheduler) finalizeEvents(total uint64) {
	if s.err != nil || s.stopped {
		return
	}
	end := total
	if s.haltSeen {
		end = s.haltAt
	} else if s.lastRes.Aborted != "" {
		end = s.lastEnd // the run ends at the aborted window; no gap follows
	}
	res := s.lastRes
	if s.lastEnd < end {
		// The producer covered this gap; its machine's final PC is the
		// deterministic resting point.
		s.chainEvents = append(s.chainEvents, telemetry.Event{
			Kind: telemetry.KindSampleFF, Cycle: res.Cycles,
			PC: s.prodPC, Aux: end, Arg: int64(end - s.lastEnd),
		})
	}
	s.chainEvents = append(s.chainEvents, telemetry.Event{
		Kind: telemetry.KindSampleSpec, Cycle: res.Cycles,
		PC: 0, Aux: end, Arg: int64(s.specWaste), Arg2: int64(s.opts.Jobs),
	})
}

// captureMasterEvents freezes the master's telemetry stream at S0; chain
// events are appended per commit.
func (s *Scheduler) captureMasterEvents() {
	if s.masterEvents == nil {
		s.masterEvents = append([]telemetry.Event(nil), s.sys.Telemetry().AllEvents()...)
	}
}

// commit folds one window into the run in slot order: the phase decision is
// taken here (never in the worker), the window's telemetry is patched with
// the decisions the worker could not know, and the interval joins the
// estimate. Returns whether the phase trigger fired (the chain's
// continuation verdict).
func (s *Scheduler) commit(r windowResult, prevEnd uint64) bool {
	iv := r.iv
	phase := s.decidePhase(&iv, false)
	evs := r.events
	if r.first {
		// The chain emitted its gap marker before the serial predecessor was
		// known; the executed gap is slot start minus committed frontier.
		for i := range evs {
			if evs[i].Kind == telemetry.KindSampleFF {
				evs[i].Arg = int64(iv.Start - prevEnd)
				break
			}
		}
	}
	for i := len(evs) - 1; i >= 0; i-- {
		if evs[i].Kind == telemetry.KindSampleDetail {
			if phase {
				evs[i].Arg2 = 1
			}
			break
		}
	}
	s.chainEvents = append(s.chainEvents, evs...)
	s.intervals = append(s.intervals, iv)
	s.lastRes = r.res
	s.lastEnd = iv.End
	return phase
}

// decidePhase takes the phase decision for the next interval in commit
// order: the trigger fires when the interval's signals moved more than
// PhaseDelta from the previous interval's. It flags iv, counts the phase
// extra, and advances the reference signals. inStartup suppresses the
// trigger (a startup interval is detailed anyway) but still advances the
// reference.
func (s *Scheduler) decidePhase(iv *Interval, inStartup bool) bool {
	sig := signals(iv)
	phase := !inStartup && s.prevSigOK && s.cfg.PhaseDelta >= 0 &&
		sigChanged(sig, s.prevSig, s.cfg.PhaseDelta)
	iv.Phase = phase
	if phase {
		s.phaseExtras++
	}
	s.prevSig, s.prevSigOK = sig, true
	return phase
}

// noteHalt records the architectural halt point. Every observer (a chain's
// window, the producer's fast-forward) computes the same point, so the
// first report wins and the rest agree.
func (s *Scheduler) noteHalt(at uint64) {
	if !s.haltSeen {
		s.haltSeen, s.haltAt = true, at
	}
}

func (s *Scheduler) stopRequested() bool {
	select {
	case <-s.opts.Stop:
		return true
	default:
		return false
	}
}

// advance fast-forwards the producer's machine to progress target in
// bounded chunks so a stop lands between chunks. Reports false when the
// program halted before target (recording the halt point) or the stop
// fired.
func (s *Scheduler) advance(sys *core.System, target uint64, stopc <-chan struct{}) bool {
	const chunk = 4 << 20
	for {
		p := sys.Progress()
		if p >= target {
			return true
		}
		sys.FastForward(min(target-p, chunk), 0)
		if sys.Thread().Halted() {
			if sys.Progress() >= target {
				return true
			}
			s.prodHalted, s.prodHaltAt = true, sys.Progress()
			return false
		}
		select {
		case <-stopc:
			return false
		default:
		}
	}
}

// startProducer starts the fast-forward pass on a machine of its own,
// positioned where the master stands when Run begins: instruction 0 (a
// fresh machine), or the snapshot a loading Checkpoint restored the master
// from (a mid-startup state, or S0). In a fresh run the producer therefore
// fast-forwards alongside the serial startup prefix rather than after it.
// It cannot know p0 yet, only that p0 ≥ Startup, so it streams every slot
// whose warm-up starts at or past both its start point and Startup;
// runWindows drops the slots the prefix turned out to cover and takes a
// slot clipped by p0 from the master.
//
// The seed is a full machine state, not an architectural snapshot: a
// restored master may stand inside a trace, and only a machine holding the
// code cache can map that PC back to the original program.
func (s *Scheduler) startProducer(total uint64) {
	I, W := s.cfg.Interval, s.cfg.Warmup
	start := s.sys.Progress()
	k0 := (max(start, s.cfg.Startup) + W + I - 1) / I // first slot whose warm-up starts there or later
	// The producer may run this many slots ahead of the reconciler: enough
	// to stream through the startup prefix and to keep twice the launch
	// window in hand. Snapshots are a few KiB; unconsumed ones are drained.
	s.prodSnaps = make(chan slotSnap, 4*s.opts.Jobs+16)
	s.prodStop = make(chan struct{})
	s.prodDone = make(chan struct{})
	go s.produce(start, k0, s.lastSlot(total), total)
}

// joinProducer waits for the producer to end. With finish the producer
// runs to its own end: every slot sent, then the final gap covered, so a
// halt inside that gap is observed and the machine rests where a serial
// fast-forward would. Without it the producer is stopped at its next chunk
// or send. Snapshots no chain will consume are drained either way.
func (s *Scheduler) joinProducer(finish bool) {
	if s.prodDone == nil {
		return
	}
	if !finish {
		close(s.prodStop)
	}
	for range s.prodSnaps {
	}
	<-s.prodDone
}

// produce is the fast-forward pass. It positions a fresh machine at the
// master's start point (progress start), streams slots k0..K in order, then
// covers the final gap so a halt inside it is observed exactly as a serial
// fast-forward would observe it. When it ends cleanly its machine joins the
// free list: a chain re-seeds it from S0 like any recycled machine.
func (s *Scheduler) produce(start, k0, K, total uint64) {
	defer close(s.prodDone)
	sys := s.opts.NewSystem()
	ok := s.produceSlots(sys, start, k0, K)
	close(s.prodSnaps)
	if ok {
		s.advance(sys, total, s.prodStop)
	}
	s.prodEnd, s.prodPC = sys.Progress(), sys.Thread().PC()
	if s.prodErr == nil {
		s.putMachine(sys)
	}
}

// produceSlots streams slots k0..K from sys; false when a halt, a stop, or
// an error ended the stream early. With a region-of-interest cache, each
// slot is restored from — or contributed to — the cache, so a sweep pays
// for functional execution once. Every slot it streams has the full Warmup:
// the one slot that can be clipped comes from the master.
func (s *Scheduler) produceSlots(sys *core.System, start, k0, K uint64) bool {
	if s.seed != nil {
		if err := sys.RestoreState(s.seed); err != nil {
			s.prodErr = fmt.Errorf("sampling: seed the producer: %w", err)
			return false
		}
	}
	if sys.Progress() != start {
		s.prodErr = fmt.Errorf("sampling: producer seeded at progress %d, master at %d "+
			"(the master must be fresh or restored through Checkpoint)", sys.Progress(), start)
		return false
	}
	I, W := s.cfg.Interval, s.cfg.Warmup
	stopc := s.prodStop
	for k := k0; k <= K; k++ {
		at := k*I - W
		var blob []byte
		if s.roi != nil {
			b, err := s.roi.LoadOrBuild(k, func() ([]byte, error) {
				if !s.advance(sys, at, stopc) {
					return nil, errProducerStopped
				}
				return sys.SaveROI(), nil
			})
			if errors.Is(err, errProducerStopped) {
				return false
			}
			if err != nil {
				s.prodErr = fmt.Errorf("sampling: ROI checkpoint %d: %w", k, err)
				return false
			}
			blob = b
			if sys.Progress() != at {
				// Cache hit: position the machine by restoring the snapshot
				// it would otherwise have fast-forwarded to.
				if err := sys.RestoreROI(blob); err != nil {
					s.prodErr = fmt.Errorf("sampling: restore ROI checkpoint %d: %w", k, err)
					return false
				}
			}
		} else {
			if !s.advance(sys, at, stopc) {
				return false
			}
			blob = sys.SaveROI()
		}
		select {
		case s.prodSnaps <- slotSnap{k: k, warm: W, blob: blob}:
		case <-stopc:
			return false
		}
	}
	return true
}

// chain runs one window chain on a private machine: seed from S0, restore
// the slot's architectural snapshot, replay the warm-up, then run windows
// until the reconciler's verdict (or a terminal condition) ends the chain.
// The worker never takes a trigger decision — it reports signals and waits.
//
// The machine is recycled: chain takes a finished chain's machine when one
// is free and builds one only otherwise, and gives it back when it ends.
// That is sound because RestoreState leaves a used machine exactly as a
// fresh one restored from the same bytes — it drops the compiled tiers of
// both code images and zeroes the engine counters no checkpoint carries —
// so no engine state of the previous chain reaches the interval tier
// records. core's TestRecycledMachineMatchesFresh pins that property, and
// TestParallelMatchesSerial the serial identity it buys. A machine whose
// restore failed is not given back: its state is half-replaced. (The one
// engine state a restore keeps, a fast path the divergence sentinel
// demoted, cannot arise: sampled runs refuse the sentinel, DESIGN §14.)
//
// A chain executes only while it holds a run slot (runSlots): it takes one
// before seeding and before each extension window, and gives it back while
// it waits for a verdict. A chain discarded before it was admitted finds
// its false verdict already buffered and never runs.
func (s *Scheduler) chain(c *chainJob, sn slotSnap, total uint64) {
	s.run.acquire(sn.k)
	select {
	case <-c.verdict:
		s.run.release()
		return
	default:
	}
	fail := func(err error) {
		s.run.release()
		c.results <- windowResult{err: err, final: true}
	}
	sys := s.takeMachine()
	if err := sys.RestoreState(s.s0Blob); err != nil {
		fail(fmt.Errorf("sampling: seed chain %d from startup snapshot: %w", sn.k, err))
		return
	}
	if err := sys.RestoreROI(sn.blob); err != nil {
		fail(fmt.Errorf("sampling: restore ROI checkpoint %d: %w", sn.k, err))
		return
	}
	defer s.putMachine(sys)
	if sn.warm > 0 {
		sys.FastForward(sn.warm, sn.warm)
	}
	tel := sys.Telemetry()
	var mark uint64
	if tel != nil {
		mark = tel.Emitted()
	}
	res := sys.Results()
	// The gap length (Arg) is patched at commit time, when the serial
	// predecessor is known.
	tel.Emit(telemetry.KindSampleFF, res.Cycles, sys.Thread().PC(),
		sys.Progress(), 0, int64(sn.warm))
	first := true
	for {
		if sys.Thread().Halted() || sys.Progress() >= total {
			s.run.release()
			c.results <- windowResult{empty: true, final: true,
				end: sys.Progress(), halted: sys.Thread().Halted()}
			return
		}
		n := min(s.cfg.Detailed, total-sys.Progress())
		iv, after := runWindow(sys, n)
		// Phase flag (Arg2) is patched at commit time.
		tel.Emit(telemetry.KindSampleDetail, after.Cycles, sys.Thread().PC(),
			sys.Progress(), int64(iv.Instrs()), 0)
		evs := captureSince(tel, &mark)
		halted, aborted := sys.Thread().Halted(), sys.Aborted()
		final := halted || aborted != "" || sys.Progress() >= total
		s.run.release()
		c.results <- windowResult{iv: iv, res: after, events: evs, first: first,
			final: final, end: sys.Progress(), halted: halted, aborted: aborted}
		first = false
		if final {
			return
		}
		if !<-c.verdict {
			return
		}
		s.run.acquire(sn.k)
	}
}

// runSlots admits at most Jobs chains to execute at once. A freed slot goes
// to the waiting chain with the lowest slot number: the reconciler blocks
// on the frontier chain, which is always the lowest live slot, so it never
// queues behind speculation it may yet discard.
type runSlots struct {
	mu      sync.Mutex
	free    int
	waiting []runWaiter
	busy    int // slots held now
	peak    int // most slots ever held at once
}

type runWaiter struct {
	k     uint64
	ready chan struct{}
}

func (r *runSlots) acquire(k uint64) {
	r.mu.Lock()
	if r.free > 0 {
		r.free--
		r.busy++
		r.peak = max(r.peak, r.busy)
		r.mu.Unlock()
		return
	}
	ready := make(chan struct{})
	r.waiting = append(r.waiting, runWaiter{k, ready})
	r.mu.Unlock()
	<-ready // the releaser handed its slot over; busy is unchanged
}

func (r *runSlots) release() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.waiting) == 0 {
		r.free++
		r.busy--
		return
	}
	next := 0
	for i, w := range r.waiting {
		if w.k < r.waiting[next].k {
			next = i
		}
	}
	close(r.waiting[next].ready)
	r.waiting = slices.Delete(r.waiting, next, next+1)
}

// peakBusy reports the most chains that ever executed at once.
func (r *runSlots) peakBusy() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.peak
}

// takeMachine pops a free worker machine, or builds one when none is free.
func (s *Scheduler) takeMachine() *core.System {
	s.freeMu.Lock()
	if n := len(s.free); n > 0 {
		sys := s.free[n-1]
		s.free = s.free[:n-1]
		s.freeMu.Unlock()
		return sys
	}
	s.freeMu.Unlock()
	return s.opts.NewSystem()
}

// putMachine returns a finished chain's machine to the free list.
func (s *Scheduler) putMachine(sys *core.System) {
	s.freeMu.Lock()
	s.free = append(s.free, sys)
	s.freeMu.Unlock()
}

// captureSince returns the tracer's events at or past the watermark and
// moves the watermark to the present.
func captureSince(tel *telemetry.Tracer, mark *uint64) []telemetry.Event {
	if tel == nil {
		return nil
	}
	all := tel.AllEvents()
	i := 0
	for i < len(all) && all[i].Seq < *mark {
		i++
	}
	evs := append([]telemetry.Event(nil), all[i:]...)
	*mark = tel.Emitted()
	return evs
}
