package memsys

// Drain retires every fill completed by now, so a test can reach a settled
// state.
func (h *Hierarchy) Drain(now int64) {
	h.inflight.deleteWhere(func(_ uint64, f fill) bool { return f.ready <= now })
}

// InFlight returns the number of outstanding fills.
func (h *Hierarchy) InFlight() int { return h.inflight.len() }
