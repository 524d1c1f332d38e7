package memsys

import (
	"encoding/binary"
	"fmt"
	"sort"

	"tridentsp/internal/checkpoint"
)

// Checkpoint serialization (DESIGN §12). The hierarchy restores into an
// object freshly built from the same Config; only mutable state travels:
// the chaos-adjustable latency knobs, cache contents in recency order, the
// MSHR table, the bus cursor, the victim ring, the fill heap, and Stats.
//
// The MSHR table is hash-ordered in memory; it serializes content-sorted by
// line address so two identical machines produce identical bytes regardless
// of insertion history, and restores by re-insertion (every reader of the
// table is layout-independent).

// SaveState serializes the hierarchy.
func (h *Hierarchy) SaveState(e *checkpoint.Encoder) {
	e.Mark("memsys.hier")
	e.I64(h.cfg.MemLatency)
	e.I64(h.cfg.BusOccupancy)
	saveCache(e, h.l1)
	saveCache(e, h.l2)
	saveCache(e, h.l3)

	keys := make([]uint64, 0, h.inflight.len())
	h.inflight.each(func(k uint64, _ fill) { keys = append(keys, k) })
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	e.Len(len(keys))
	for _, k := range keys {
		v, _ := h.inflight.get(k)
		e.U64(k)
		e.I64(v.ready)
		e.U8(uint8(v.source))
	}

	e.I64(h.busFree)

	e.Len(len(h.victims.ring))
	for i := range h.victims.ring {
		e.U64(h.victims.ring[i])
		e.Bool(h.victims.valid[i])
	}
	e.Int(h.victims.next)

	e.Len(len(h.fillHeap))
	for _, v := range h.fillHeap {
		e.I64(v)
	}

	s := &h.Stats
	e.U64(s.Loads)
	e.U64(s.Stores)
	for _, c := range s.ByOutcome {
		e.U64(c)
	}
	e.U64(s.L1Hits)
	e.U64(s.L2Hits)
	e.U64(s.L3Hits)
	e.U64(s.MemAccesses)
	e.U64(s.PrefetchesIssued)
	e.U64(s.PrefetchesRedundant)
	e.U64(s.PrefetchesDropped)
	e.U64(s.WastedPrefetches)
	e.I64(s.TotalLoadLatency)
	e.I64(s.TotalMissLatency)
}

// LoadState restores state saved by SaveState.
func (h *Hierarchy) LoadState(d *checkpoint.Decoder) error {
	d.Expect("memsys.hier")
	h.cfg.MemLatency = d.I64()
	h.cfg.BusOccupancy = d.I64()
	if err := loadCache(d, h.l1); err != nil {
		return err
	}
	if err := loadCache(d, h.l2); err != nil {
		return err
	}
	if err := loadCache(d, h.l3); err != nil {
		return err
	}

	h.inflight.clear()
	for n := d.Len(); n > 0; n-- {
		k := d.U64()
		f := fill{ready: d.I64(), source: FillSource(d.U8())}
		if d.Err() != nil {
			return d.Err()
		}
		h.inflight.put(k, f)
	}

	h.busFree = d.I64()

	n := d.Len()
	if d.Err() != nil {
		return d.Err()
	}
	if n != len(h.victims.ring) {
		return fmt.Errorf("%w: victim ring size %d, expected %d",
			checkpoint.ErrCorrupt, n, len(h.victims.ring))
	}
	h.victims.idx.clear()
	for i := 0; i < n; i++ {
		h.victims.ring[i] = d.U64()
		h.victims.valid[i] = d.Bool()
		if h.victims.valid[i] {
			h.victims.idx.put(h.victims.ring[i], int32(i))
		}
	}
	h.victims.next = d.Int()

	h.fillHeap = h.fillHeap[:0]
	for n := d.Len(); n > 0; n-- {
		h.fillHeap = append(h.fillHeap, d.I64())
	}

	s := &h.Stats
	s.Loads = d.U64()
	s.Stores = d.U64()
	for i := range s.ByOutcome {
		s.ByOutcome[i] = d.U64()
	}
	s.L1Hits = d.U64()
	s.L2Hits = d.U64()
	s.L3Hits = d.U64()
	s.MemAccesses = d.U64()
	s.PrefetchesIssued = d.U64()
	s.PrefetchesRedundant = d.U64()
	s.PrefetchesDropped = d.U64()
	s.WastedPrefetches = d.U64()
	s.TotalLoadLatency = d.I64()
	s.TotalMissLatency = d.I64()
	return d.Err()
}

// saveCache writes one cache level's sets in recency order (slot 0 = MRU),
// so the restored replacement behaviour matches exactly. Each way travels
// unpacked — tag, a valid flag (always true), the prefetched mark — so the
// checkpoint format does not depend on the in-memory packing.
func saveCache(e *checkpoint.Encoder, c *cache) {
	e.Len(len(c.count))
	for si := range c.count {
		set := c.set(uint64(si))
		e.Len(len(set))
		for _, w := range set {
			e.U64(w >> 1)
			e.Bool(true)
			e.Bool(w&wayPrefetched != 0)
		}
	}
}

// wayBytes is one saved way's size: tag (8), valid flag (1), prefetched (1).
const wayBytes = 10

// loadCache restores one cache level by decoding straight into its flat way
// array. Each set's ways are taken from the payload in one piece and parsed
// here, with the checks the per-field decoder would make: flag bytes must
// be 0 or 1. A way the packed layout cannot hold — one marked invalid, or a
// tag of 2⁶³ or more — is refused as corrupt rather than restored as a dead
// slot.
func loadCache(d *checkpoint.Decoder, c *cache) error {
	n := d.Len()
	if d.Err() != nil {
		return d.Err()
	}
	if n != len(c.count) {
		return fmt.Errorf("%w: cache has %d sets, checkpoint %d", checkpoint.ErrCorrupt, len(c.count), n)
	}
	for si := range c.count {
		k := d.Len()
		if d.Err() != nil {
			return d.Err()
		}
		if k > c.assoc {
			return fmt.Errorf("%w: cache set %d holds %d lines, associativity %d",
				checkpoint.ErrCorrupt, si, k, c.assoc)
		}
		raw := d.Raw(k * wayBytes)
		if d.Err() != nil {
			return d.Err()
		}
		c.count[si] = int32(k)
		set := c.set(uint64(si))
		for j := range set {
			w := raw[j*wayBytes : (j+1)*wayBytes]
			if w[8] > 1 || w[9] > 1 {
				return fmt.Errorf("%w: cache set %d way %d: invalid boolean byte", checkpoint.ErrCorrupt, si, j)
			}
			tag, valid, prefetched := binary.LittleEndian.Uint64(w), w[8] == 1, w[9] == 1
			if !valid {
				return fmt.Errorf("%w: cache set %d way %d is marked invalid", checkpoint.ErrCorrupt, si, j)
			}
			if tag >= 1<<63 {
				return fmt.Errorf("%w: cache set %d way %d holds tag %#x, too wide to pack",
					checkpoint.ErrCorrupt, si, j, tag)
			}
			set[j] = packWay(tag, prefetched)
		}
	}
	return d.Err()
}
