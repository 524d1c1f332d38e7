package chaos

import (
	"errors"

	"tridentsp/internal/checkpoint"
)

// Checkpoint serialization (DESIGN §12). Schedules are immutable and travel
// as configuration, not state; only the per-System cursor (Run) and the
// watchdog's accumulated history (Monitor) serialize. A restored Run picks
// up mid-schedule by cursor position — the edges themselves are re-expanded
// from the shared Schedule at construction.

// Checkpoint walks the cursor position. Loading targets a freshly started
// Run over the same Schedule.
func (r *Run) Checkpoint(c *checkpoint.Codec) {
	c.Mark("chaos.run")
	c.Int(&r.idx)
	c.U64(&r.Applied)
	if c.Loading() && (r.idx < 0 || r.idx > len(r.edges)) {
		c.Failf("chaos cursor %d outside schedule of %d edges", r.idx, len(r.edges))
	}
}

// Checkpoint walks the watchdog's probe cursor and violation history.
// Violations restore as opaque error strings — they are reporting payload,
// never matched programmatically. The registered checks stay as
// constructed: they close over live structures and are not state.
func (m *Monitor) Checkpoint(c *checkpoint.Codec) {
	c.Mark("chaos.monitor")
	c.I64(&m.nextAt)
	c.U64(&m.ticks)
	checkpoint.Slice(c, &m.violations, func(c *checkpoint.Codec, v *Violation) {
		c.Str(&v.Check)
		c.I64(&v.At)
		var msg string
		if v.Err != nil {
			msg = v.Err.Error()
		}
		c.Str(&msg)
		if c.Loading() {
			v.Err = errors.New(msg)
		}
	})
}
