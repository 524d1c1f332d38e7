package prefetch

import (
	"fmt"
	"sort"

	"tridentsp/internal/dlt"
	"tridentsp/internal/isa"
	"tridentsp/internal/telemetry"
	"tridentsp/internal/trace"
	"tridentsp/internal/trident"
)

// Mode selects which of Figure 5's software prefetching schemes runs.
type Mode uint8

// Prefetching modes.
const (
	// ModeBasic mirrors prior dynamic prefetchers (ADORE-style, §5.3
	// "basic"): per-load prefetches at the distance estimated by
	// equation 2, no grouping, no repair.
	ModeBasic Mode = iota
	// ModeWholeObject adds same-object grouping (§3.4.2) with the
	// estimated distance, no repair.
	ModeWholeObject
	// ModeSelfRepair is the paper's contribution: whole-object prefetching
	// starting at distance 1, adaptively repaired (§3.5.1, §3.5.2).
	ModeSelfRepair
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeBasic:
		return "basic"
	case ModeWholeObject:
		return "whole-object"
	case ModeSelfRepair:
		return "self-repair"
	}
	return "?"
}

// Config parameterizes the optimizer.
type Config struct {
	Mode Mode
	// LineSize is the cache line size used for the skip/extra-block rules.
	LineSize int64
	// ScratchReg is the register inserted dereference code may clobber;
	// workloads reserve it (the paper's optimizer allocates a dead
	// register; a fixed reservation keeps the trace analysis honest).
	ScratchReg isa.Reg
	// MemLatency is the full memory latency (max-distance numerator).
	MemLatency int64
	// L1Latency prices hits in the average-access-latency trend test.
	L1Latency int64
	// MaxDistanceCap bounds any distance regardless of trace timing.
	MaxDistanceCap int64
	// DerefPointers enables the §3.4.3 pointer dereference prefetching.
	DerefPointers bool
	// InitFromEstimate starts self-repairing groups at the equation-2
	// estimate instead of 1. The paper modeled this variant and "saw no
	// gain because the low overhead of the optimization system allows it
	// to converge quickly" (§3.5.1) — the ablation experiment reproduces
	// that claim.
	InitFromEstimate bool
}

// DefaultConfig returns the paper's self-repairing configuration for the
// default memory hierarchy.
func DefaultConfig() Config {
	return Config{
		Mode:           ModeSelfRepair,
		LineSize:       64,
		ScratchReg:     30,
		MemLatency:     350,
		L1Latency:      3,
		MaxDistanceCap: 64,
		DerefPointers:  true,
	}
}

// prefetchLoc is one placed prefetch instruction belonging to a group.
type prefetchLoc struct {
	pc  uint64 // code-cache address
	off int64  // base offset; imm = off + stride*distance
}

// groupState carries a group's prefetching state across re-optimizations.
type groupState struct {
	Group
	distance    int64
	maxDist     int64
	repairsUsed int64
	lastAvgLat  int64
	hasLast     bool
	mature      bool
	// patchStride scales the distance when patching prefetch immediates:
	// the group's own stride for stride groups, the producer's stride for
	// producer-dereference groups, zero when nothing is distance-
	// parametric (deref-only chases).
	patchStride int64
	prefetches  []prefetchLoc
	// derefMembers are pointer members needing dereference prefetching:
	// after the group's stride prefetches when StrideOK (the §3.4.2+§3.4.3
	// combination: dereference right after the stride-based prefetch, at
	// the prefetch distance), else right after the load itself.
	derefMembers []Member
}

// traceState is the optimizer's per-trace memory (the paper's "optimization
// buffer in program's memory", §3.5.2).
type traceState struct {
	startPC uint64
	base    *trace.Trace // formed + classically optimized, no prefetches
	curID   int
	groups  []*groupState
	byLoad  map[uint64]*groupState
	// potential holds the original PCs of loads the optimizer could
	// prefetch if they became delinquent (Figure 4's "potentially
	// software prefetched").
	potential map[uint64]bool
}

// Stats counts optimizer activity.
type Stats struct {
	Insertions        uint64 // trace regenerations with prefetches
	Repairs           uint64 // in-place distance patches
	Matured           uint64 // loads given up on
	PrefetchesPlaced  uint64 // prefetch instructions currently placed
	DerefChainsPlaced uint64
}

// ResultKind describes what an event handler did.
type ResultKind uint8

// Result kinds.
const (
	ResultNone ResultKind = iota
	ResultInserted
	ResultRepaired
	ResultMatured
)

// String names the kind.
func (k ResultKind) String() string {
	switch k {
	case ResultInserted:
		return "inserted"
	case ResultRepaired:
		return "repaired"
	case ResultMatured:
		return "matured"
	}
	return "none"
}

// Result is the outcome of processing one delinquent-load event. An insert
// or repair leaves its visible effect pending; the core lands it (Land) at
// the helper thread's completion cycle.
type Result struct {
	Kind ResultKind
	Cost int64
}

// pendingOp is an insert or repair whose patch has not landed yet. It lands
// on ts, the state it was computed from, which is always tracked: ForgetTrace
// cancels the change along with its trace.
type pendingOp struct {
	ts     *traceState  // nil: nothing pending
	tr     *trace.Trace // insert: the new version; nil: a repair
	locs   [][]locRef   // insert: stride-prefetch locations in tr, per group
	derefs int          // insert: dereference chains in tr
	group  int          // repair: index into ts.groups
}

// Optimizer is the dynamic prefetch optimizer.
type Optimizer struct {
	cfg   Config
	table *dlt.Table
	cache *trident.CodeCache
	watch *trident.WatchTable
	cost  trident.CostModel

	traces  map[uint64]*traceState // by original startPC
	pending pendingOp

	tracer   *telemetry.Tracer
	distHist *telemetry.Histogram

	Stats Stats
}

// New builds an optimizer over the shared Trident structures.
func New(cfg Config, table *dlt.Table, cache *trident.CodeCache,
	watch *trident.WatchTable, cost trident.CostModel) *Optimizer {
	return &Optimizer{
		cfg:    cfg,
		table:  table,
		cache:  cache,
		watch:  watch,
		cost:   cost,
		traces: make(map[uint64]*traceState),
	}
}

// SetTracer attaches a telemetry tracer: insert/repair/mature decisions
// emit events and placed distances feed a histogram. nil (default) is free.
func (o *Optimizer) SetTracer(tr *telemetry.Tracer) {
	o.tracer = tr
	if reg := tr.Metrics(); reg != nil {
		o.distHist = reg.Histogram("prefetch_distance", 1, 2, 4, 8, 16, 32, 64)
	}
}

// RegisterTrace tells the optimizer about a newly formed hot trace (before
// any prefetching). The base trace must already be placed and linked with
// the given ID.
func (o *Optimizer) RegisterTrace(startPC uint64, base *trace.Trace, traceID int) {
	ts := &traceState{
		startPC:   startPC,
		base:      base.Clone(),
		curID:     traceID,
		byLoad:    make(map[uint64]*groupState),
		potential: make(map[uint64]bool),
	}
	o.traces[startPC] = ts
	o.refreshPotential(ts)
}

// refreshPotential recomputes the prefetchable-load population of a trace.
func (o *Optimizer) refreshPotential(ts *traceState) {
	for _, g := range classifyAll(ts.base, o.table) {
		ok := g.StrideOK ||
			(g.ProducerOK && o.cfg.DerefPointers && o.cfg.Mode != ModeBasic)
		if !ok && o.cfg.DerefPointers {
			for _, m := range g.Members {
				if m.Class == ClassPointer {
					ok = true
					break
				}
			}
		}
		if ok {
			for _, m := range g.Members {
				ts.potential[m.OrigPC] = true
			}
		}
	}
}

// BaseTrace returns a copy of the trace's base version (formed and
// classically optimized, without prefetch code). Value specialization
// regenerates from it so the prefetch optimizer can re-insert cleanly on
// top of the specialized body.
func (o *Optimizer) BaseTrace(startPC uint64) (*trace.Trace, bool) {
	ts, ok := o.traces[startPC]
	if !ok {
		return nil, false
	}
	return ts.base.Clone(), true
}

// ForgetTrace drops the optimizer's state for a trace head whose trace a
// chaos code-cache eviction unlinked, and cancels an insert or repair
// pending for it.
func (o *Optimizer) ForgetTrace(startPC uint64) {
	delete(o.traces, startPC)
	if o.pending.ts != nil && o.pending.ts.startPC == startPC {
		o.pending = pendingOp{}
	}
}

// TraceID returns the current linked trace ID for a registered head.
func (o *Optimizer) TraceID(startPC uint64) (int, bool) {
	ts, ok := o.traces[startPC]
	if !ok {
		return 0, false
	}
	return ts.curID, true
}

// ProcessEvent handles one delinquent-load event for the trace that starts
// at startPC, processed at cycle now (stamped onto emitted telemetry).
// loadPC is the original PC of the triggering load.
func (o *Optimizer) ProcessEvent(startPC, loadPC uint64, now int64) Result {
	ts, ok := o.traces[startPC]
	if !ok {
		return Result{Kind: ResultNone}
	}
	if g, ok := ts.byLoad[loadPC]; ok {
		if g.mature {
			o.table.SetMature(loadPC)
			o.tracer.Emit(telemetry.KindPrefetchMature, now, loadPC, startPC, g.matureDist(), 0)
			return Result{Kind: ResultMatured, Cost: o.cost.RepairCost}
		}
		if g.patchStride != 0 && len(g.prefetches) > 0 {
			return o.repair(ts, g, loadPC, now)
		}
		// Deref-only prefetching has no distance to repair: a second
		// event means the chain is not hiding the latency; give up
		// (§3.5.2 "it cannot be repaired due to lack of stride
		// patterns").
		return o.giveUp(ts, g, loadPC, now)
	}
	return o.insert(ts, loadPC, now)
}

// giveUp matures every member of g, so the group stops raising events.
func (o *Optimizer) giveUp(ts *traceState, g *groupState, loadPC uint64, now int64) Result {
	g.mature = true
	for _, m := range g.Members {
		o.table.SetMature(m.OrigPC)
	}
	o.Stats.Matured++
	o.tracer.Emit(telemetry.KindPrefetchMature, now, loadPC, ts.startPC, g.matureDist(), 0)
	return Result{Kind: ResultMatured, Cost: o.cost.RepairCost}
}

// matureDist is the distance a mature event reports: the group's final
// distance for stride-repairable groups, 0 for deref-only chases.
func (g *groupState) matureDist() int64 {
	if g.patchStride == 0 {
		return 0
	}
	return g.distance
}

// insert (re)generates the trace with prefetch instructions for every
// delinquent load currently identifiable in it (§3.4.1: "the optimizer
// first checks if there are other loads that need to be prefetched in the
// same hot trace").
func (o *Optimizer) insert(ts *traceState, triggerPC uint64, now int64) Result {
	o.refreshPotential(ts) // DLT stride knowledge may have grown
	groups := classifyTrace(ts.base, o.table, o.cfg.Mode != ModeBasic)

	// Merge newly found groups into existing state; keep distances of
	// groups that already exist.
	newLoads := 0
	for _, g := range groups {
		known := false
		for _, m := range g.Members {
			if _, ok := ts.byLoad[m.OrigPC]; ok {
				known = true
				break
			}
		}
		if known {
			continue
		}
		gs := o.newGroupState(ts, g)
		if gs == nil {
			// Unprefetchable: mature every member (§3.5.2).
			for _, m := range g.Members {
				o.table.SetMature(m.OrigPC)
				o.Stats.Matured++
			}
			continue
		}
		ts.groups = append(ts.groups, gs)
		for _, m := range g.Members {
			ts.byLoad[m.OrigPC] = gs
		}
		newLoads += len(g.Members)
	}

	if newLoads == 0 {
		// Nothing prefetchable, including the trigger: mature it so it
		// stops raising events.
		if _, ok := ts.byLoad[triggerPC]; !ok {
			o.table.SetMature(triggerPC)
			o.Stats.Matured++
			o.tracer.Emit(telemetry.KindPrefetchMature, now, triggerPC, ts.startPC, 0, 0)
			o.clearTraceCounters(ts)
			return Result{Kind: ResultMatured, Cost: o.cost.RepairCost}
		}
		o.clearTraceCounters(ts)
		return Result{Kind: ResultNone, Cost: o.cost.RepairCost}
	}

	newTr, locs, derefs, err := o.buildPrefetchedTrace(ts)
	if err != nil {
		return Result{Kind: ResultNone, Cost: o.cost.InsertBase}
	}
	cost := o.cost.InsertBase + o.cost.InsertPerLoad*int64(newLoads) +
		o.cost.FormPerInst*int64(newTr.Len())

	o.pending = pendingOp{ts: ts, tr: newTr, locs: locs, derefs: derefs}
	o.Stats.Insertions++
	trigDist := int64(0)
	if g, ok := ts.byLoad[triggerPC]; ok && g.patchStride != 0 {
		trigDist = g.distance
		o.distHist.Observe(trigDist)
	}
	o.tracer.Emit(telemetry.KindPrefetchInsert, now, triggerPC, ts.startPC,
		trigDist, int64(newLoads))
	return Result{Kind: ResultInserted, Cost: cost}
}

// newGroupState initializes prefetching state for a fresh group, or nil if
// the group is unprefetchable.
func (o *Optimizer) newGroupState(ts *traceState, g *Group) *groupState {
	gs := &groupState{Group: *g}

	// Deref candidates: pointer members (§3.4.3), including pointer loads
	// inside stride groups ("the pointer is also dereferenced right after
	// its stride-based prefetch instruction").
	if o.cfg.DerefPointers {
		for _, m := range g.Members {
			if m.Class == ClassPointer {
				gs.derefMembers = append(gs.derefMembers, m)
			}
		}
	}

	switch {
	case g.StrideOK:
		gs.patchStride = g.Stride
	case g.ProducerOK && o.cfg.DerefPointers && o.cfg.Mode != ModeBasic:
		// The base register is a pointer loaded by a stride-predictable
		// producer: the whole group is prefetched by dereferencing the
		// producer at the prefetch distance. This jump-pointer-style
		// same-object prefetching is what distinguishes the whole-object
		// scheme from prior per-load prefetchers (§2.3, §5.3).
		gs.patchStride = g.ProducerStride
	case len(gs.derefMembers) > 0:
		// Deref-only chase: prefetchable but not distance-repairable.
	default:
		return nil
	}

	gs.maxDist = o.maxDistance(ts)
	switch {
	case o.cfg.Mode == ModeSelfRepair && !o.cfg.InitFromEstimate:
		gs.distance = 1
	default:
		gs.distance = o.estimateDistance(ts, g)
	}
	if gs.distance < 1 {
		gs.distance = 1
	}
	if gs.distance > gs.maxDist {
		gs.distance = gs.maxDist
	}
	return gs
}

// maxDistance computes the §3.5.2 bound: memory latency over the trace's
// minimal execution time.
func (o *Optimizer) maxDistance(ts *traceState) int64 {
	minExec := int64(0)
	if we, ok := o.watch.ByID(ts.curID); ok {
		minExec = we.MinExecTime
	}
	if minExec <= 0 {
		return 8 // no timing yet: a conservative default
	}
	d := o.cfg.MemLatency / minExec
	if d < 1 {
		d = 1
	}
	if d > o.cfg.MaxDistanceCap {
		d = o.cfg.MaxDistanceCap
	}
	return d
}

// estimateDistance is equation 2: average miss latency over average
// traversal time.
func (o *Optimizer) estimateDistance(ts *traceState, g *Group) int64 {
	var missLat int64
	for _, m := range g.Members {
		if e, ok := o.table.Lookup(m.OrigPC); ok {
			if l := e.AvgMissLatency(); l > missLat {
				missLat = l
			}
		}
	}
	avgIter := int64(0)
	if we, ok := o.watch.ByID(ts.curID); ok {
		avgIter = we.AvgExecTime()
	}
	if avgIter <= 0 || missLat <= 0 {
		return 1
	}
	d := (missLat + avgIter - 1) / avgIter
	if d < 1 {
		d = 1
	}
	if d > o.cfg.MaxDistanceCap {
		d = o.cfg.MaxDistanceCap
	}
	return d
}

// clearTraceCounters unfreezes DLT monitoring for every load of the trace.
func (o *Optimizer) clearTraceCounters(ts *traceState) {
	for i := range ts.base.Insts {
		ti := &ts.base.Insts[i]
		if ti.Inst.Op.Class() == isa.ClassLoad && ti.OrigPC != 0 {
			o.table.ClearCounters(ti.OrigPC)
		}
	}
}

// repair adjusts an existing group's prefetch distance in place (§3.5.2).
func (o *Optimizer) repair(ts *traceState, g *groupState, loadPC uint64, now int64) Result {
	if o.cfg.Mode != ModeSelfRepair || g.patchStride == 0 {
		// No repairable stride prefetch: give up on this load.
		return o.giveUp(ts, g, loadPC, now)
	}
	// The repair budget is twice the maximal distance (§3.5.2); the
	// maximal distance is re-calculated on every repair, so the budget
	// grows as prefetching shortens the trace's minimal execution time —
	// the bootstrap the paper relies on for quick stabilization.
	g.maxDist = o.maxDistance(ts)
	if g.repairsUsed >= 2*g.maxDist {
		return o.giveUp(ts, g, loadPC, now)
	}

	// Trend test on the load's average access latency (§3.5.2).
	curAvg := int64(0)
	if e, ok := o.table.Lookup(loadPC); ok {
		curAvg = e.AvgAccessLatency(o.cfg.L1Latency)
	}
	newDist := g.distance
	if g.hasLast && curAvg > g.lastAvgLat {
		newDist--
	} else {
		newDist++
	}
	if newDist < 1 {
		newDist = 1
	}
	if newDist > g.maxDist {
		newDist = g.maxDist
	}
	g.lastAvgLat = curAvg
	g.hasLast = true
	g.repairsUsed++

	if newDist == g.distance {
		// Pinned at a bound: burn the repair budget without patching.
		o.clearGroupCounters(g)
		return Result{Kind: ResultRepaired, Cost: o.cost.RepairCost}
	}
	oldDist := g.distance
	g.distance = newDist
	o.pending = pendingOp{ts: ts, group: groupIndex(ts.groups, g)}
	o.Stats.Repairs++
	o.distHist.Observe(newDist)
	o.tracer.Emit(telemetry.KindPrefetchRepair, now, loadPC, ts.startPC, newDist, oldDist)
	return Result{Kind: ResultRepaired, Cost: o.cost.RepairCost}
}

// Land lands the pending insert or repair, if any: a repair patches the
// group's prefetch immediates; an insert hands its new version to place
// (the core's placement path, which replaces version oldID of the trace at
// head and relinks it) and resolves the group locations.
func (o *Optimizer) Land(place func(head uint64, tr *trace.Trace, oldID int) (*trident.Placement, error)) error {
	p := o.pending
	o.pending = pendingOp{}
	ts := p.ts
	if ts == nil {
		return nil
	}
	if p.tr == nil {
		g := ts.groups[p.group]
		for _, l := range g.prefetches {
			if err := o.cache.PatchImm(l.pc, l.off+g.patchStride*g.distance); err != nil {
				return fmt.Errorf("prefetch: repair patch: %w", err)
			}
		}
		o.clearGroupCounters(g)
		return nil
	}
	pl, err := place(ts.startPC, p.tr, ts.curID)
	if err != nil {
		return err
	}
	ts.curID = pl.TraceID
	o.Stats.PrefetchesPlaced = 0
	for gi, g := range ts.groups {
		g.prefetches = g.prefetches[:0]
		for _, l := range p.locs[gi] {
			g.prefetches = append(g.prefetches, prefetchLoc{
				pc:  pl.Start + uint64(l.idx)*isa.WordSize,
				off: l.off,
			})
		}
		o.Stats.PrefetchesPlaced += uint64(len(g.prefetches))
	}
	o.Stats.DerefChainsPlaced += uint64(p.derefs)
	o.clearTraceCounters(ts)
	return nil
}

// clearGroupCounters unfreezes every member of a group.
func (o *Optimizer) clearGroupCounters(g *groupState) {
	for _, m := range g.Members {
		o.table.ClearCounters(m.OrigPC)
	}
}

// CheckInvariants verifies the §3.5.2 controller invariants across every
// tracked group (DESIGN §6): every distance lies in [1, MaxDistanceCap];
// for groups still under repair the distance respects the current trace-
// timing bound and the repair count stays within the 2×maxDist budget.
// (A matured group may hold a distance above a *recomputed* bound — e.g.
// after a watch-table eviction dropped the timing history — because the
// clamp applies when distances are set, and maturity freezes them.)
// Returns nil when all hold.
func (o *Optimizer) CheckInvariants() error {
	// Walk traces in address order: the check runs on watchdog ticks (off
	// the hot path) and a deterministic walk keeps any reported violation
	// identical across runs.
	heads := make([]uint64, 0, len(o.traces))
	for startPC := range o.traces {
		heads = append(heads, startPC)
	}
	sort.Slice(heads, func(i, j int) bool { return heads[i] < heads[j] })
	for _, startPC := range heads {
		ts := o.traces[startPC]
		for _, g := range ts.groups {
			if g.patchStride == 0 {
				continue // deref-only chases carry no distance
			}
			if g.distance < 1 || g.distance > o.cfg.MaxDistanceCap {
				return fmt.Errorf("prefetch: trace %#x group base=%v distance %d outside [1,%d]", startPC, g.BaseReg, g.distance, o.cfg.MaxDistanceCap)
			}
			if g.mature {
				continue
			}
			if g.maxDist < 1 {
				return fmt.Errorf("prefetch: trace %#x group base=%v maxDist %d < 1", startPC, g.BaseReg, g.maxDist)
			}
			if g.distance > g.maxDist {
				return fmt.Errorf("prefetch: trace %#x group base=%v distance %d > bound %d", startPC, g.BaseReg, g.distance, g.maxDist)
			}
			if g.repairsUsed > 2*g.maxDist {
				return fmt.Errorf("prefetch: trace %#x group base=%v used %d repairs, budget %d", startPC, g.BaseReg, g.repairsUsed, 2*g.maxDist)
			}
		}
	}
	return nil
}

// Covered reports whether the load is prefetched or prefetchable — the
// "potentially software prefetched" classification behind Figure 4.
func (o *Optimizer) Covered(startPC, loadPC uint64) bool {
	ts, ok := o.traces[startPC]
	if !ok {
		return false
	}
	if _, ok := ts.byLoad[loadPC]; ok {
		return true
	}
	if ts.potential[loadPC] {
		return true
	}
	// Code analysis may have missed it (e.g. the recurrence fell past the
	// trace-length cap), but a DLT-stride-predictable load in a trace is
	// always prefetchable (§3.4.1).
	e, ok := o.table.Lookup(loadPC)
	return ok && e.StridePredictable() && e.Stride != 0
}

// Distance reports a load's current prefetch distance (0 when the load has
// no stride prefetch), for the experiment harness and tests.
func (o *Optimizer) Distance(startPC, loadPC uint64) int64 {
	ts, ok := o.traces[startPC]
	if !ok {
		return 0
	}
	g, ok := ts.byLoad[loadPC]
	if !ok || !g.StrideOK {
		return 0
	}
	return g.distance
}
