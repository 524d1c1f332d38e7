package trident

import (
	"fmt"
	"sort"

	"tridentsp/internal/cpu"
	"tridentsp/internal/isa"
	"tridentsp/internal/trace"
)

// Placement records where a trace lives in the code cache.
type Placement struct {
	TraceID int
	Start   uint64 // first instruction address
	End     uint64 // one past the last instruction
	Trace   *trace.Trace
	Live    bool // still linked (stale placements stay resident)
}

// CodeCache is the memory buffer Trident places optimized traces into
// (§3.2 "Linking Trace"). It owns the trace address space and implements
// instruction fetch for it, including in-place patching of prefetch
// instruction immediates — the self-repairing optimizer's primitive.
type CodeCache struct {
	base    uint64
	words   []uint64
	insts   []isa.Inst
	weights []int

	placements []Placement // sorted by Start
	nextID     int

	// blocks caches straight-line instruction runs for the simulator's fast
	// path; invalidated whenever the placed image changes.
	blocks *cpu.BlockCache
}

// NewCodeCache creates a cache whose traces occupy addresses from base
// upward. base must be above the original program image.
func NewCodeCache(base uint64) *CodeCache {
	base &^= 7
	return &CodeCache{base: base, nextID: 1, blocks: cpu.NewBlockCache(base)}
}

// Base returns the first code-cache address.
func (c *CodeCache) Base() uint64 { return c.base }

// Contains reports whether pc falls inside the placed region.
func (c *CodeCache) Contains(pc uint64) bool {
	return pc >= c.base && pc < c.base+uint64(len(c.insts))*isa.WordSize
}

// Size returns the occupied bytes.
func (c *CodeCache) Size() int { return len(c.words) * isa.WordSize }

// Place encodes the trace into the cache, assigning it an ID and an address
// range. Exit branches are resolved to absolute original-code targets and
// loop branches to the trace's own start.
func (c *CodeCache) Place(tr *trace.Trace) (*Placement, error) {
	start := c.base + uint64(len(c.insts))*isa.WordSize
	id := c.nextID

	for i := range tr.Insts {
		ti := &tr.Insts[i]
		pc := start + uint64(i)*isa.WordSize
		in := ti.Inst
		switch ti.Kind {
		case trace.ExitBranch, trace.ExitJump:
			in.Imm = isa.BranchDisp(pc, ti.ExitTarget)
		case trace.LoopBranch:
			in.Imm = isa.BranchDisp(pc, start)
		}
		w, err := isa.EncodeChecked(in)
		if err != nil {
			return nil, fmt.Errorf("trident: placing trace %d inst %d: %w", id, i, err)
		}
		c.words = append(c.words, w)
		c.insts = append(c.insts, isa.Decode(w))
		c.weights = append(c.weights, ti.Weight)
	}

	c.nextID++
	tr.ID = id
	pl := Placement{
		TraceID: id,
		Start:   start,
		End:     start + uint64(len(tr.Insts))*isa.WordSize,
		Trace:   tr,
		Live:    true,
	}
	c.placements = append(c.placements, pl)
	// Placing appends to (and may reallocate) the decoded image; repoint
	// the block cache and drop its descriptors.
	c.blocks.SetSource(c.insts, c.weights)
	return &c.placements[len(c.placements)-1], nil
}

// BlockAt returns the straight-line block starting at pc (see
// cpu.BlockCache); block weights carry the trace's per-instruction
// original-instruction weights.
func (c *CodeCache) BlockAt(pc uint64) (cpu.Block, bool) {
	return c.blocks.At(pc)
}

// BlockAtJIT is BlockAt through the JIT tier (see cpu.BlockCache.AtCompiled).
func (c *CodeCache) BlockAtJIT(pc uint64, threshold uint32) (cpu.Block, *cpu.CompiledBlock, bool) {
	return c.blocks.AtCompiled(pc, threshold)
}

// CompiledAt is the launch-hot chain lookup (see cpu.BlockCache.CompiledAt).
func (c *CodeCache) CompiledAt(pc uint64) *cpu.CompiledBlock {
	return c.blocks.CompiledAt(pc)
}

// DropCompiled eagerly discards the JIT tier (sentinel demotion, restore).
func (c *CodeCache) DropCompiled() { c.blocks.DropCompiled() }

// BlockStats returns the block cache's activity counters.
func (c *CodeCache) BlockStats() cpu.BlockStats { return c.blocks.Stats() }

// ResetBlockStats zeroes the block cache's activity counters.
func (c *CodeCache) ResetBlockStats() { c.blocks.ResetStats() }

// Fetch returns the decoded instruction at pc; ok is false outside the
// placed region.
func (c *CodeCache) Fetch(pc uint64) (isa.Inst, bool) {
	if !c.Contains(pc) || pc%isa.WordSize != 0 {
		return isa.Inst{}, false
	}
	return c.insts[(pc-c.base)/isa.WordSize], true
}

// Weight returns the original-instruction weight of the trace instruction
// at pc (0 outside the cache).
func (c *CodeCache) Weight(pc uint64) int {
	if !c.Contains(pc) || pc%isa.WordSize != 0 {
		return 0
	}
	return c.weights[(pc-c.base)/isa.WordSize]
}

// PatchImm rewrites the immediate field of the instruction word at pc in
// place ("we just update the prefetch instruction bits with the new
// distance", §3.5.1).
func (c *CodeCache) PatchImm(pc uint64, imm int64) error {
	if !c.Contains(pc) || pc%isa.WordSize != 0 {
		return fmt.Errorf("trident: PatchImm outside code cache at %#x", pc)
	}
	i := (pc - c.base) / isa.WordSize
	w, err := isa.PatchImm(c.words[i], imm)
	if err != nil {
		return err
	}
	c.words[i] = w
	c.insts[i] = isa.Decode(w)
	// The patched word changed under any block descriptor spanning it.
	c.blocks.Invalidate()
	return nil
}

// InstImm returns the current immediate of the instruction at pc (repair
// back-calculates the previous distance from it).
func (c *CodeCache) InstImm(pc uint64) (int64, error) {
	if !c.Contains(pc) || pc%isa.WordSize != 0 {
		return 0, fmt.Errorf("trident: InstImm outside code cache at %#x", pc)
	}
	return c.insts[(pc-c.base)/isa.WordSize].Imm, nil
}

// PlacementAt finds the live placement containing pc.
func (c *CodeCache) PlacementAt(pc uint64) (*Placement, bool) {
	if !c.Contains(pc) {
		return nil, false
	}
	i := sort.Search(len(c.placements), func(i int) bool {
		return c.placements[i].End > pc
	})
	if i < len(c.placements) && c.placements[i].Start <= pc {
		return &c.placements[i], true
	}
	return nil, false
}

// PlacementByID finds a placement by trace ID.
func (c *CodeCache) PlacementByID(id int) (*Placement, bool) {
	for i := range c.placements {
		if c.placements[i].TraceID == id {
			return &c.placements[i], true
		}
	}
	return nil, false
}

// Retire marks a placement dead (superseded by a re-optimized version).
// Its instructions stay resident — execution already inside it must drain —
// but it no longer counts as a live trace.
func (c *CodeCache) Retire(id int) {
	if pl, ok := c.PlacementByID(id); ok {
		pl.Live = false
	}
}

// RetargetLoops repatches a trace's loop-back branches to jump to target
// (the original head) instead of the trace's own start. This is how a
// superseded trace drains: its next loop-closing branch routes through the
// re-patched original binary into the new trace version.
func (c *CodeCache) RetargetLoops(id int, target uint64) error {
	pl, ok := c.PlacementByID(id)
	if !ok {
		return fmt.Errorf("trident: RetargetLoops: no trace %d", id)
	}
	for i := range pl.Trace.Insts {
		if pl.Trace.Insts[i].Kind != trace.LoopBranch {
			continue
		}
		pc := pl.Start + uint64(i)*isa.WordSize
		if err := c.PatchImm(pc, isa.BranchDisp(pc, target)); err != nil {
			return err
		}
	}
	return nil
}

// VisitPlacements calls fn for every placement in placement order (live and
// retired). fn may mutate the placement but must not place or retire traces
// during the walk.
func (c *CodeCache) VisitPlacements(fn func(*Placement)) {
	for i := range c.placements {
		fn(&c.placements[i])
	}
}

// LiveTraces counts linked traces.
func (c *CodeCache) LiveTraces() int {
	n := 0
	for i := range c.placements {
		if c.placements[i].Live {
			n++
		}
	}
	return n
}
