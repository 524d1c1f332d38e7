package memsys

// Warm probes for functional fast-forward (DESIGN §14). During a sampled
// run's warmup window the executor advances only architecturally, but the
// caches, the hardware prefetcher, and their recency state should enter the
// next detailed interval looking lived-in rather than cold. The Warm*
// methods update tag arrays, replacement recency, the prefetched marks, the
// victim-tag history, and the stream buffers' stride/allocation state —
// and deliberately nothing else:
//
//   - no figure statistics (Stats stays a detailed-interval record; warm
//     stream-buffer counters do tick, but the sampling controller measures
//     Results deltas across detailed intervals only, so they never reach a
//     figure);
//   - no MSHR entries, no fill-heap pushes, no bus occupancy — the clock is
//     frozen during fast-forward, so an in-flight fill could never retire
//     and would wedge the MSHR and corrupt the resumed detailed interval.
//
// Stream-buffer refills issued by warm training go through StartFill like
// real ones; the warming flag makes that port install nothing and answer
// "ready now", so warm streams hold plausible lines with no timing debt.

// WarmLoad probes the hierarchy for a demand load during warmup, updating
// tag/recency state along the path the timing Load would take, and reports
// whether the access would have missed in L1. now is the warm pseudo-clock
// (monotone, never ahead of the frozen real clock).
func (h *Hierarchy) WarmLoad(pc, addr uint64, now int64) (l1Miss bool) {
	la := h.Line(addr)
	if w := h.l1.lookup(la); w != nil {
		takePrefetched(w)
		h.warmTrain(pc, addr, now, false)
		return false
	}

	// Stream-buffer supply: a held line installs into the hierarchy on
	// use, exactly as in the timing path; the buffer refills behind the
	// warming port.
	supplied := false
	if h.prefetcher != nil {
		h.warming = true
		_, supplied = h.prefetcher.Lookup(la, now)
		h.warming = false
	}
	if !supplied && h.l2.lookup(la) == nil {
		// Full miss: the line climbs through L3 and L2 on the way up.
		h.l3.lookup(la)
		h.l3.insert(la, false)
		h.l2.insert(la, false)
	} else if supplied {
		h.l2.insert(la, false)
		h.l3.insert(la, false)
	}
	h.victims.remove(la)
	h.l1.insert(la, false) // a demand eviction feeds no victim history
	h.warmTrain(pc, addr, now, true)
	return true
}

// WarmStore is the warmup counterpart of Store: a recency touch if the line
// is present, nothing else (stores are write-through and non-allocating).
func (h *Hierarchy) WarmStore(addr uint64) {
	h.l1.lookup(h.Line(addr))
}

// WarmPrefetch is the warmup counterpart of Prefetch: the line installs
// immediately (marked prefetched) with no MSHR entry, fill event, or stats.
func (h *Hierarchy) WarmPrefetch(addr uint64) {
	la := h.Line(addr)
	if h.l1.contains(la) || h.inflight.contains(la) {
		return
	}
	if h.prefetcher != nil && h.prefetcher.Contains(la) {
		return
	}
	if h.l2.lookup(la) == nil {
		h.l3.lookup(la)
		h.l3.insert(la, false)
		h.l2.insert(la, false)
	}
	// The displaced line joins the victim-tag history, so it still
	// classifies later misses; the wasted-prefetch figure stat is left alone.
	if ev, ok := h.l1.insert(la, true); ok {
		h.victims.add(ev >> 1)
	}
}

// warmTrain trains the hardware prefetcher behind the warming port.
func (h *Hierarchy) warmTrain(pc, addr uint64, now int64, l1Miss bool) {
	if h.prefetcher == nil {
		return
	}
	h.warming = true
	h.prefetcher.Train(pc, addr, now, l1Miss)
	h.warming = false
}
