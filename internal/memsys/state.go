package memsys

import (
	"encoding/binary"
	"slices"

	"tridentsp/internal/checkpoint"
)

// Checkpoint serialization (DESIGN §12). The hierarchy restores into an
// object freshly built from the same Config; only mutable state travels:
// the chaos-adjustable latency knobs, cache contents in recency order, the
// MSHR table, the bus cursor, the victim ring, and Stats.
//
// The MSHR table is hash-ordered in memory; it serializes content-sorted by
// line address so two identical machines produce identical bytes regardless
// of insertion history, and restores by re-insertion (every reader of the
// table is layout-independent).

// Checkpoint walks the hierarchy.
func (h *Hierarchy) Checkpoint(c *checkpoint.Codec) {
	c.Mark("memsys.hier")
	c.I64(&h.cfg.MemLatency)
	c.I64(&h.cfg.BusOccupancy)
	for _, level := range []*cache{h.l1, h.l2, h.l3} {
		checkpointCache(c, level)
	}

	var lines []uint64
	if c.Loading() {
		h.inflight.clear()
	} else {
		h.inflight.each(func(k uint64, _ fill) { lines = append(lines, k) })
		slices.Sort(lines)
	}
	for i, n := 0, c.Len(len(lines)); i < n; i++ {
		var line uint64
		var f fill
		if !c.Loading() {
			line = lines[i]
			f, _ = h.inflight.get(line)
		}
		c.U64(&line)
		c.I64(&f.ready)
		checkpoint.Enum(c, &f.source)
		if c.Loading() && c.Err() == nil {
			h.inflight.put(line, f)
		}
	}

	c.I64(&h.busFree)

	v := h.victims
	if !c.Count(len(v.ring), "victim-cache lines") {
		return
	}
	for i := range v.ring {
		c.U64(&v.ring[i])
		c.Bool(&v.valid[i])
	}
	c.Int(&v.next)
	if c.Err() == nil && (v.next < 0 || v.next >= len(v.ring)) {
		c.Failf("victim ring cursor %d outside its %d lines", v.next, len(v.ring))
	}
	if c.Loading() {
		v.idx.clear()
		for i, ok := range v.valid {
			if ok {
				v.idx.put(v.ring[i], int32(i))
			}
		}
	}

	s := &h.Stats
	c.U64(&s.Loads)
	c.U64(&s.Stores)
	checkpoint.Words(c, s.ByOutcome[:])
	c.U64(&s.L1Hits)
	c.U64(&s.L2Hits)
	c.U64(&s.L3Hits)
	c.U64(&s.MemAccesses)
	c.U64(&s.PrefetchesIssued)
	c.U64(&s.PrefetchesRedundant)
	c.U64(&s.PrefetchesDropped)
	c.U64(&s.WastedPrefetches)
	c.I64(&s.TotalLoadLatency)
	c.I64(&s.TotalMissLatency)
}

// wayBytes is one saved way's size: tag (8), valid flag (1), prefetched (1).
const wayBytes = 10

// checkpointCache walks one cache level's sets in recency order (slot 0 =
// MRU), so the restored replacement behaviour matches exactly. Each way
// travels unpacked — tag, a valid flag (always true), the prefetched mark —
// so the checkpoint format does not depend on the in-memory packing. A
// set's ways travel as one Raw run: saving packs them straight from the
// flat way array, loading parses them straight back into it with the checks
// the per-field reads would make (flag bytes must be 0 or 1). A way the
// packed layout cannot hold — one marked invalid, or a tag of 2⁶³ or more —
// is refused as corrupt rather than restored as a dead slot.
func checkpointCache(k *checkpoint.Codec, c *cache) {
	if !k.Count(len(c.count), "cache sets") {
		return
	}
	for si := range c.count {
		n := k.Len(int(c.count[si]))
		if k.Err() == nil && n > c.assoc {
			k.Failf("cache set %d holds %d lines, associativity %d", si, n, c.assoc)
		}
		raw := k.Raw(n * wayBytes)
		if k.Err() != nil {
			return
		}
		if !k.Loading() {
			for j, w := range c.set(uint64(si)) {
				r := raw[j*wayBytes : (j+1)*wayBytes]
				binary.LittleEndian.PutUint64(r, w>>1)
				r[8] = 1
				r[9] = byte(w & wayPrefetched)
			}
			continue
		}
		c.count[si] = int32(n)
		set := c.set(uint64(si))
		for j := range set {
			w := raw[j*wayBytes : (j+1)*wayBytes]
			if w[8] > 1 || w[9] > 1 {
				k.Failf("cache set %d way %d: invalid boolean byte", si, j)
				return
			}
			tag, valid, prefetched := binary.LittleEndian.Uint64(w), w[8] == 1, w[9] == 1
			if !valid {
				k.Failf("cache set %d way %d is marked invalid", si, j)
				return
			}
			if tag >= 1<<63 {
				k.Failf("cache set %d way %d holds tag %#x, too wide to pack", si, j, tag)
				return
			}
			set[j] = packWay(tag, prefetched)
		}
	}
}
