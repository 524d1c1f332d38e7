// Package telemetry is the simulator's observability spine: a structured
// event tracer and a metrics registry that every subsystem of the machine
// reports into. The paper's whole mechanism is a feedback loop — delinquent
// loads are detected, traces formed, prefetches inserted, distances repaired
// ±1 — and the end-of-run aggregate tables cannot show *why* a distance
// converged or a repair budget burned out. The tracer records the loop's
// individual decisions as typed, fixed-size events in pre-allocated ring
// buffers; the registry accumulates counters, gauges, and histograms beside
// them. Exporters (export.go) render the streams as a flat JSONL log or a
// Chrome trace_event file.
//
// Cost contract: a disabled tracer is a nil *Tracer, and every Emit through
// it is one nil check — zero allocations, no stores (the benchdiff gate and
// TestEmitZeroAlloc enforce this). An enabled tracer allocates its rings
// once at construction; Emit writes one fixed-size slot and bumps one
// counter, allocating nothing.
//
// Event classes: most events are *semantic* — they describe decisions of
// the simulated machine (DLT delinquency, trace formation, prefetch
// repair) and are bit-identical between the event-horizon fast path and
// the reference one-step loop, which is what makes the recorded streams a
// conformance oracle (the golden-trace suite in internal/exp). Fast-path
// entry/exit events describe the *engine* and exist only when batching
// runs; they live in a separate ring so engine chatter can never evict
// semantic history.
package telemetry

// Kind is the type of one traced event.
type Kind uint8

// Event kinds. Semantic kinds first, engine kinds last (see Engine).
const (
	// KindDLTDelinquent: a load's monitoring window classified it
	// delinquent. PC = load PC, Aux = last address, Arg = window misses,
	// Arg2 = average miss latency.
	KindDLTDelinquent Kind = iota
	// KindDLTEvict: allocating a DLT entry evicted the set's LRU.
	// PC = evicted load PC, Aux = allocating load PC.
	KindDLTEvict
	// KindTraceForm: a hot trace was placed and linked. PC = head,
	// Aux = code-cache address, Arg = trace length, Arg2 = trace ID.
	KindTraceForm
	// KindTraceSpecialize: a trace was value-specialized. PC = head,
	// Aux = specialized load PC, Arg = trace length, Arg2 = new trace ID.
	KindTraceSpecialize
	// KindTraceBackOut: an evicted trace was unlinked.
	// PC = head, Arg = trace ID.
	KindTraceBackOut
	// KindPrefetchInsert: the optimizer regenerated a trace with prefetch
	// code. PC = triggering load, Aux = head, Arg = the trigger's initial
	// distance, Arg2 = newly covered loads.
	KindPrefetchInsert
	// KindPrefetchRepair: a ±1 distance repair. PC = load, Aux = head,
	// Arg = the distance after the repair, Arg2 = the distance before.
	KindPrefetchRepair
	// KindPrefetchMature: the load was written off. PC = load, Aux = head,
	// Arg = final distance (0 when none was ever placed).
	KindPrefetchMature
	// KindHelperRun: one helper-thread invocation. Cycle = start,
	// Arg = duration in cycles (startup latency included).
	KindHelperRun
	// KindEventDropped: the bounded event queue rejected a raised event.
	// PC = the event's load or head PC, Arg = the trident event kind.
	KindEventDropped
	// KindChaosEdge: one fault-injection edge applied. Cycle = the edge's
	// scheduled cycle, Aux = the chaos event kind, Arg = its argument,
	// Arg2 = 1 on enter, 0 on exit.
	KindChaosEdge
	// KindWatchdogProbe: one invariant-watchdog round. Arg = violations
	// found this round, Arg2 = violations recorded in total.
	KindWatchdogProbe
	// KindHWPrefSwitch: the prefetch-policy selector activated a backend
	// (internal/hwpref, DESIGN §16). PC = backend index in arsenal order,
	// Aux = committed loads observed at the switch, Arg = the winner's
	// epoch score (0 for probe activations), Arg2 = 1 for an exploit
	// activation, 0 for a probe. Semantic: switch points derive from the
	// committed load stream only, so the streams match across engines.
	KindHWPrefSwitch
	// KindFastEnter (engine): the fast path started a batching session.
	// PC = entry pc.
	KindFastEnter
	// KindFastExit (engine): the session ended. PC = pc at exit,
	// Aux = the session's entry cycle, Arg = FPReason, Arg2 = instructions
	// retired in the session.
	KindFastExit
	// KindSentinelCheck (engine): the divergence sentinel replayed a window
	// through the reference loop and it matched. PC = pc at the check,
	// Aux = the window's start instruction count, Arg = window length in
	// original instructions.
	KindSentinelCheck
	// KindSentinelDivergence (engine): the replay disagreed with the fast
	// path. PC = pc where the divergent run stood, Aux = the window's start
	// instruction count, Arg = window length, Arg2 = total trips so far.
	// The System rewinds to the window start, quarantines its decoded
	// blocks, and demotes itself to the reference loop.
	KindSentinelDivergence
	// KindSampleDetail (engine): a sampled run finished one detailed
	// interval (DESIGN §14). PC = pc at the interval's end, Aux = total
	// program progress (detailed + fast-forwarded original instructions),
	// Arg = original instructions retired in the interval, Arg2 = 1 when
	// the interval's signals flagged a phase change (forcing the next
	// interval detailed too), else 0.
	KindSampleDetail
	// KindSampleFF (engine): one functional fast-forward gap completed.
	// PC = pc after the gap, Aux = total program progress afterwards,
	// Arg = original instructions fast-forwarded, Arg2 = how many of them
	// ran with warm-up probes enabled.
	KindSampleFF
	// KindSampleSpec (engine): a sampled run's schedule completed; one
	// summary marker for the parallel window scheduler (DESIGN §15).
	// Aux = final program progress, Arg = speculative windows executed but
	// discarded, Arg2 = the -sample-jobs setting. The payload is jobs-
	// dependent by design (waste only exists when speculating), so
	// cross-jobs stream comparisons drop this kind.
	KindSampleSpec
	// NumKinds bounds the kind space.
	NumKinds
)

var kindNames = [NumKinds]string{
	"dlt-delinquent", "dlt-evict",
	"trace-form", "trace-specialize", "trace-back-out",
	"prefetch-insert", "prefetch-repair", "prefetch-mature",
	"helper-run", "event-dropped",
	"chaos-edge", "watchdog-probe", "hwpref-switch",
	"fast-enter", "fast-exit",
	"sentinel-check", "sentinel-divergence",
	"sample-detail", "sample-ff", "sample-spec",
}

// String names the kind.
func (k Kind) String() string {
	if k < NumKinds {
		return kindNames[k]
	}
	return "unknown"
}

// KindByName resolves a kind name (the decoder's inverse of String).
func KindByName(name string) (Kind, bool) {
	for k := Kind(0); k < NumKinds; k++ {
		if kindNames[k] == name {
			return k, true
		}
	}
	return 0, false
}

// Engine reports whether the kind describes the execution engine rather
// than the simulated machine. Engine events depend on which simulation
// path ran (fast vs -slowpath) and are excluded from semantic stream
// comparisons.
func (k Kind) Engine() bool { return k >= KindFastEnter && k < NumKinds }

// FPReason says why a fast-path batching session ended (KindFastExit.Arg),
// and doubles as the slow-path trigger taxonomy the registry counts.
type FPReason int64

// Fast-path exit reasons.
const (
	// FPHalted: the program halted.
	FPHalted FPReason = iota
	// FPLimit: the run's instruction budget was reached.
	FPLimit
	// FPNeedSlow: the batch stopped before an instruction it cannot retire
	// (a store under MSHR pressure, a hooked load or branch that might
	// cross the horizon, a hooked declined load under a chaos schedule).
	FPNeedSlow
	// FPFirstSlow: not even the block's first instruction was batchable.
	FPFirstSlow
	// FPNoBlock: no decodable superblock at pc.
	FPNoBlock
	// FPTraceEntry: first entry into a trace placement (entry-tracking
	// side effects run on the slow path).
	FPTraceEntry
	// FPPatched: the word at pc carries a trace-link patch.
	FPPatched
	// FPSentinel: the divergence sentinel has a window to open or close.
	FPSentinel
	// NumFPReasons bounds the reason space.
	NumFPReasons
)

var fpReasonNames = [NumFPReasons]string{
	"halted", "limit", "need-slow", "first-slow",
	"no-block", "trace-entry", "patched", "sentinel",
}

// String names the reason.
func (r FPReason) String() string {
	if r >= 0 && r < NumFPReasons {
		return fpReasonNames[r]
	}
	return "unknown"
}

// Event is one traced occurrence. Fixed size: the rings hold events by
// value and Emit never allocates. Field meaning is per-kind (see the Kind
// constants); unused fields are zero.
type Event struct {
	// Seq is the tracer-wide emission index (both rings share it, so the
	// full stream has a total order even though the classes are buffered
	// separately).
	Seq uint64
	// Cycle is the simulation clock when the event was recorded.
	Cycle int64
	Kind  Kind
	// PC is the event's primary subject (a load PC, a trace head, ...).
	PC uint64
	// Aux is the secondary subject (a head PC, a placement address, ...).
	Aux uint64
	// Arg and Arg2 carry per-kind scalar payload.
	Arg, Arg2 int64
}

// Options configures a tracer.
type Options struct {
	// RingCap is the per-class ring capacity in events, rounded up to a
	// power of two; 0 selects DefaultRingCap. When a ring is full the
	// oldest events are overwritten (Dropped counts them).
	RingCap int
}

// DefaultRingCap holds 65536 events per class — enough that a multi-
// million-instruction run keeps its full semantic history (the golden
// suite asserts zero drops at its budgets).
const DefaultRingCap = 1 << 16

// ring is one fixed-capacity, overwrite-oldest event buffer.
type ring struct {
	buf  []Event
	mask uint64
	n    uint64 // events ever pushed
}

// EffectiveRingCap is the ring capacity the options actually build:
// RingCap rounded up to a power of two, DefaultRingCap when unset.
func (o Options) EffectiveRingCap() int {
	if o.RingCap <= 0 {
		return DefaultRingCap
	}
	c := 1
	for c < o.RingCap {
		c <<= 1
	}
	return c
}

func newRing(c int) ring {
	return ring{buf: make([]Event, c), mask: uint64(c - 1)}
}

func (r *ring) push(e Event) {
	r.buf[r.n&r.mask] = e
	r.n++
}

// events returns the retained events, oldest first.
func (r *ring) events() []Event {
	if r.n <= uint64(len(r.buf)) {
		return append([]Event(nil), r.buf[:r.n]...)
	}
	out := make([]Event, 0, len(r.buf))
	for i := r.n - uint64(len(r.buf)); i < r.n; i++ {
		out = append(out, r.buf[i&r.mask])
	}
	return out
}

func (r *ring) dropped() uint64 {
	if r.n <= uint64(len(r.buf)) {
		return 0
	}
	return r.n - uint64(len(r.buf))
}

// Tracer records events and feeds the metrics registry. The zero value is
// not usable; construct with New. A nil *Tracer is the disabled tracer:
// every method is safe to call and Emit is a single branch.
type Tracer struct {
	sem, eng ring
	seq      uint64
	reg      *Registry
	kinds    [NumKinds]*Counter
}

// New builds an enabled tracer with a fresh metrics registry. All ring
// memory is allocated here; Emit never allocates.
func New(opts Options) *Tracer {
	t := &Tracer{
		sem: newRing(opts.EffectiveRingCap()),
		eng: newRing(opts.EffectiveRingCap()),
		reg: NewRegistry(),
	}
	for k := Kind(0); k < NumKinds; k++ {
		t.kinds[k] = t.reg.Counter("events_" + k.String())
	}
	return t
}

// Emit records one event. Safe (and free) on a nil tracer.
func (t *Tracer) Emit(kind Kind, cycle int64, pc, aux uint64, arg, arg2 int64) {
	if t == nil {
		return
	}
	e := Event{Seq: t.seq, Cycle: cycle, Kind: kind, PC: pc, Aux: aux, Arg: arg, Arg2: arg2}
	t.seq++
	if kind.Engine() {
		t.eng.push(e)
	} else {
		t.sem.push(e)
	}
	t.kinds[kind].Inc()
}

// Enabled reports whether the tracer records anything.
func (t *Tracer) Enabled() bool { return t != nil }

// Metrics returns the registry (nil on a disabled tracer).
func (t *Tracer) Metrics() *Registry {
	if t == nil {
		return nil
	}
	return t.reg
}

// Events returns the retained semantic events, oldest first.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	return t.sem.events()
}

// EngineEvents returns the retained engine events, oldest first.
func (t *Tracer) EngineEvents() []Event {
	if t == nil {
		return nil
	}
	return t.eng.events()
}

// AllEvents merges both classes in emission order (by Seq).
func (t *Tracer) AllEvents() []Event {
	if t == nil {
		return nil
	}
	a, b := t.sem.events(), t.eng.events()
	out := make([]Event, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i].Seq < b[j].Seq {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// Renumber rewrites Seq to the events' positions in the slice and returns
// it. Seq is tracer-wide, so a semantic stream extracted with Events()
// carries gaps wherever engine events interleaved — numbering that depends
// on which execution path ran. Renumbering restores the path-independent
// within-class order, which is what the golden-trace suite compares.
func Renumber(events []Event) []Event {
	for i := range events {
		events[i].Seq = uint64(i)
	}
	return events
}

// Emitted counts every event ever emitted (retained or dropped).
func (t *Tracer) Emitted() uint64 {
	if t == nil {
		return 0
	}
	return t.seq
}

// Dropped counts semantic events overwritten by ring wrap-around.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	return t.sem.dropped()
}

// EngineDropped counts engine events overwritten by ring wrap-around.
func (t *Tracer) EngineDropped() uint64 {
	if t == nil {
		return 0
	}
	return t.eng.dropped()
}
