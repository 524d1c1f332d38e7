package sampling

import (
	"errors"
	"fmt"
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
//     exactly the slots [frontier, frontier+jobs-1] and block on their
//     snapshots, so the set of chains ever launched — and therefore the
//     discarded-speculation count — is a pure function of (schedule, jobs),
//     independent of thread timing.
//
// Speculation that serial mode would not have scheduled (slots swallowed by
// a phase-extended chain) is discarded unconsumed and counted in
// Estimate.SpecWaste. Waste is the only jobs-dependent output; estimates,
// error bars, intervals, and the merged telemetry timeline are identical at
// every -sample-jobs.

// Options configures a Scheduler beyond the sampling schedule itself.
type Options struct {
	// Jobs bounds concurrently running window chains (≤1 = one at a time;
	// results are byte-identical either way, modulo SpecWaste).
	Jobs int
	// NewSystem builds a fresh worker machine identical in configuration
	// and program to the master; chains restore the startup snapshot into
	// it. It is called only when no finished chain's machine is free to
	// recycle. Required. Must be safe to call concurrently.
	NewSystem func() *core.System
	// OnCommit, when set, fires after every committed schedule step whose
	// state is snapshot-safe: each startup window and each completed chain.
	// The argument is committed program progress. SaveState may be called
	// from inside the callback.
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

	// Producer (fast-forward pass) outcome, valid after the producer
	// goroutine is joined.
	prodHalted bool
	prodHaltAt uint64
	prodErr    error

	// Worker machines free for the next chain (see chain).
	freeMu sync.Mutex
	free   []*core.System
}

// NewScheduler builds a scheduler for the master sys. cfg is taken after
// WithDefaults; roi may be nil (no checkpoint reuse). The first interval is
// always detailed — the run starts cold exactly as an exact run does.
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
	return &Scheduler{cfg: cfg, sys: sys, roi: roi, opts: opts, nextDetailed: true}, nil
}

// Config returns the effective (defaulted) schedule.
func (s *Scheduler) Config() Config { return s.cfg }

// Intervals returns the detailed-interval records committed so far, in slot
// order.
func (s *Scheduler) Intervals() []Interval { return s.intervals }

// PhaseExtras counts intervals that ran detailed because the previous one
// flagged a phase change.
func (s *Scheduler) PhaseExtras() int { return s.phaseExtras }

// SpecWaste counts speculative windows that were executed but discarded
// because the replayed serial schedule never reached their slot.
func (s *Scheduler) SpecWaste() int { return s.specWaste }

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
	if !s.windowed {
		s.runStartup(total)
	}
	if s.windowed {
		s.runWindows(total)
	}
	return s.Estimate()
}

// runStartup executes the fully detailed prefix (plus any phase-triggered
// extensions) on the master machine, then captures the startup snapshot S0
// every chain seeds from. If the budget, a halt, or an abort ends the run
// inside the prefix, the scheduler stays in master-only mode and the
// estimate is exact.
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
		sig := signals(&iv)
		inStartup := s.sys.Progress() < s.cfg.Startup
		phase := !inStartup && s.prevSigOK && s.cfg.PhaseDelta >= 0 &&
			sigChanged(sig, s.prevSig, s.cfg.PhaseDelta)
		iv.Phase = phase
		if phase {
			s.phaseExtras++
		}
		s.prevSig, s.prevSigOK = sig, true
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
// or an external stop (both already recorded by advance).
var errProducerStopped = errors.New("sampling: producer stopped")

// runWindows executes the post-startup schedule: a producer goroutine
// fast-forwards the master along the grid emitting slot snapshots, worker
// chains run detailed windows speculatively, and the reconciler (this
// goroutine) replays the serial decision sequence in slot order.
func (s *Scheduler) runWindows(total uint64) {
	I := s.cfg.Interval
	var K uint64
	if total > 0 {
		K = (total - 1) / I // last slot whose window starts before the budget
	}
	if total == 0 || s.frontier > K {
		// No detailed windows remain: the rest of the budget is one
		// functional gap, covered for halt exactness like a serial gap.
		p := s.sys.Progress()
		if p < total {
			s.advance(total, s.opts.Stop)
			res := s.sys.Results()
			s.sys.Telemetry().Emit(telemetry.KindSampleFF, res.Cycles,
				s.sys.Thread().PC(), s.sys.Progress(), int64(s.sys.Progress()-p), 0)
		}
		if s.prodHalted {
			s.noteHalt(s.prodHaltAt)
		}
		s.captureMasterEvents()
		return
	}
	s.captureMasterEvents()

	jobs := s.opts.Jobs
	stopc := make(chan struct{})
	snapc := make(chan slotSnap, 4*jobs+16)
	prodDone := make(chan struct{})
	go s.produce(snapc, stopc, prodDone, s.frontier, K, total)

	snaps := map[uint64]slotSnap{}
	chains := map[uint64]*chainJob{}
	snapcOpen := true
	// fetchSnap blocks until slot k's snapshot arrives; false when the
	// producer ended (halt, stop, or error) before reaching it. Blocking
	// here — rather than launching opportunistically — is what makes the
	// launched set, and so SpecWaste, timing-independent.
	fetchSnap := func(k uint64) (slotSnap, bool) {
		for {
			if sn, ok := snaps[k]; ok {
				return sn, true
			}
			if !snapcOpen {
				return slotSnap{}, false
			}
			sn, ok := <-snapc
			if !ok {
				snapcOpen = false
				continue
			}
			snaps[sn.k] = sn
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
		go s.chain(c, sn, total)
		return true
	}
	discard := func(k uint64) {
		if c, ok := chains[k]; ok {
			c.verdict <- false
			delete(chains, k)
			s.specWaste++
		}
	}

	frontier := s.frontier
	for frontier <= K {
		if s.stopRequested() {
			s.stopped = true
			break
		}
		for k := frontier; k <= min(frontier+uint64(jobs)-1, K); k++ {
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

	// Wind down: stop the producer, unstick any pending snapshot send, and
	// discard chains the replayed schedule never consumed.
	close(stopc)
	for range snapc {
	}
	<-prodDone
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
	}
	res := s.lastRes
	if s.lastEnd < end {
		// The master's fast-forward pass covered this gap; its final PC is
		// the deterministic resting point.
		s.chainEvents = append(s.chainEvents, telemetry.Event{
			Kind: telemetry.KindSampleFF, Cycle: res.Cycles,
			PC: s.sys.Thread().PC(), Aux: end, Arg: int64(end - s.lastEnd),
		})
	}
	s.chainEvents = append(s.chainEvents, telemetry.Event{
		Kind: telemetry.KindSampleSpec, Cycle: res.Cycles,
		PC: 0, Aux: end, Arg: int64(s.specWaste), Arg2: int64(s.opts.Jobs),
	})
}

// captureMasterEvents freezes the master's telemetry stream at S0; the
// producer advances the master afterwards (emitting nothing), and chain
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
	sig := signals(&iv)
	phase := s.prevSigOK && s.cfg.PhaseDelta >= 0 && sigChanged(sig, s.prevSig, s.cfg.PhaseDelta)
	iv.Phase = phase
	if phase {
		s.phaseExtras++
	}
	s.prevSig, s.prevSigOK = sig, true
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

// advance fast-forwards the master to progress target in bounded chunks so
// an external stop lands between chunks. Reports false when the program
// halted before target (recording the halt point) or the stop fired.
func (s *Scheduler) advance(target uint64, stopc <-chan struct{}) bool {
	const chunk = 4 << 20
	for {
		p := s.sys.Progress()
		if p >= target {
			return true
		}
		s.sys.FastForward(min(target-p, chunk), 0)
		if s.sys.Thread().Halted() {
			if s.sys.Progress() >= target {
				return true
			}
			s.prodHalted, s.prodHaltAt = true, s.sys.Progress()
			return false
		}
		select {
		case <-stopc:
			return false
		default:
		}
	}
}

// produce is the fast-forward pass: it walks the master along the grid,
// emitting each slot's architectural snapshot in slot order, then covers
// the tail gap so a halt past the last window is observed. With a
// region-of-interest cache, each full slot is restored from — or
// contributed to — the cache, so a sweep pays for functional execution
// once; the first slot after startup may be clipped (warm-up shorter than
// Warmup) and bypasses the cache, whose keys assume full-width positions.
func (s *Scheduler) produce(snapc chan<- slotSnap, stopc <-chan struct{}, done chan<- struct{}, k0, K, total uint64) {
	defer close(done)
	I, W := s.cfg.Interval, s.cfg.Warmup
	for k := k0; k <= K; k++ {
		at := k*I - W
		clipped := false
		if at < s.p0 {
			at, clipped = s.p0, true
		}
		warm := k*I - at
		var blob []byte
		if s.roi != nil && !clipped {
			b, err := s.roi.LoadOrBuild(k, func() ([]byte, error) {
				if !s.advance(at, stopc) {
					return nil, errProducerStopped
				}
				return s.sys.SaveROI(), nil
			})
			if errors.Is(err, errProducerStopped) {
				close(snapc)
				return
			}
			if err != nil {
				s.prodErr = fmt.Errorf("sampling: ROI checkpoint %d: %w", k, err)
				close(snapc)
				return
			}
			blob = b
			if s.sys.Progress() != at {
				// Cache hit: position the master by restoring the snapshot
				// it would otherwise have fast-forwarded to.
				if err := s.sys.RestoreROI(blob); err != nil {
					s.prodErr = fmt.Errorf("sampling: restore ROI checkpoint %d: %w", k, err)
					close(snapc)
					return
				}
			}
		} else {
			if !s.advance(at, stopc) {
				close(snapc)
				return
			}
			blob = s.sys.SaveROI()
		}
		select {
		case snapc <- slotSnap{k: k, warm: warm, blob: blob}:
		case <-stopc:
			close(snapc)
			return
		}
	}
	close(snapc)
	// Cover the final gap so a halt inside it is observed exactly as a
	// serial fast-forward would observe it.
	s.advance(total, stopc)
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
func (s *Scheduler) chain(c *chainJob, sn slotSnap, total uint64) {
	fail := func(err error) {
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
		c.results <- windowResult{iv: iv, res: after, events: evs, first: first,
			final: final, end: sys.Progress(), halted: halted, aborted: aborted}
		first = false
		if final {
			return
		}
		if !<-c.verdict {
			return
		}
	}
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
