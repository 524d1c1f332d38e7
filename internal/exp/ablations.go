package exp

import "tridentsp/internal/core"

// Ablations quantifies the design choices DESIGN.md calls out, as average
// speedup over the hardware-prefetching baseline across the suite:
//
//   - self-repair: the paper's full scheme (the reference).
//   - estimate-init: repair starting from the equation-2 estimate instead
//     of 1 — the paper reports "no gain" (§3.5.1), so this row should
//     match the reference.
//   - no-deref: §3.4.3 dereference prefetching disabled — the jump-pointer
//     coverage of mcf/fma3d/vis disappears.
//   - value-spec: dynamic value specialization of quasi-invariant loads
//     (the prior Trident work's optimization, PACT 2005).
func Ablations(o Options) Table {
	return speedupsOf(o, Table{
		ID:    "ablations",
		Title: "Design-choice ablations (speedup over HW baseline)",
		Paper: "estimate-init ≈ self-repair (§3.5.1 'no gain'); deref carries the pointer benchmarks",
		Columns: []string{
			"self-repair", "estimate-init", "no-deref", "value-spec",
		},
	}, []variant{
		{cfg: core.DefaultConfig()},
		tweaked("estimate-init", func(c *core.Config) { c.InitFromEstimate = true }),
		tweaked("no-deref", func(c *core.Config) { c.DerefPointers = false }),
		tweaked("value-spec", func(c *core.Config) { c.ValueSpecialize = true }),
	})
}
