// Pointerchase builds a linked-list traversal with the public Builder API —
// the access pattern static prefetchers cannot handle — and shows how the
// delinquent load table's stride predictor plus the self-repairing
// optimizer recover it: arena-allocated nodes make the chase's *addresses*
// stride-predictable even though the *code* has no induction variable
// (§3.3: "the hardware support allows us to identify a large number of
// pointer loads that turn out to have stride access patterns").
//
//	go run ./examples/pointerchase
package main

import (
	"fmt"

	"tridentsp"
	"tridentsp/internal/isa"
)

// buildChase constructs a cyclic linked list of `nodes` arena-allocated
// nodes of nodeSize bytes and a loop that walks it forever, summing one
// payload field per node.
func buildChase(nodes int, nodeSize int64) *tridentsp.Program {
	b := tridentsp.NewBuilder("chase-demo", 0x1000, 0x1000000)
	arena := b.Alloc(uint64(nodes) * uint64(nodeSize))

	b.Ldi(6, 1<<40) // outer repeat; the run's instruction budget stops us
	b.Label("outer")
	b.Ldi(1, arena)
	b.Ldi(4, uint64(nodes))
	b.Label("top")
	b.Ld(2, 1, 8) // payload
	b.Op(isa.ADD, 3, 3, 2)
	for i := 0; i < 20; i++ { // some per-node work
		b.OpI(isa.ADDI, 5, 5, 1)
	}
	b.Ld(1, 1, 0) // p = p->next
	b.OpI(isa.SUBI, 4, 4, 1)
	b.CondBr(isa.BNE, 4, "top")
	b.OpI(isa.SUBI, 6, 6, 1)
	b.CondBr(isa.BNE, 6, "outer")
	b.Halt()

	p := b.MustBuild()
	for i := 0; i < nodes; i++ {
		node := arena + uint64(int64(i)*nodeSize)
		next := arena + uint64(int64(i+1)*nodeSize)
		if i == nodes-1 {
			next = arena
		}
		p.Data.Store(node, next)
		p.Data.Store(node+8, uint64(i))
	}
	return p
}

func main() {
	const (
		nodes    = 80_000 // x 192 bytes = ~15 MB: beyond the 4 MB L3
		nodeSize = 192
		instrs   = 3_000_000
	)
	fmt.Printf("walking a %d-node (%d MB) arena-allocated list\n\n",
		nodes, nodes*nodeSize>>20)

	noPf := tridentsp.BaselineConfig(tridentsp.HWNone)
	base := tridentsp.Run(noPf, buildChase(nodes, nodeSize), instrs)
	fmt.Printf("no prefetching:            IPC %.4f\n", base.IPC())

	hw := tridentsp.Run(tridentsp.BaselineConfig(tridentsp.HW8x8), buildChase(nodes, nodeSize), instrs)
	fmt.Printf("hardware stream buffers:   IPC %.4f  (%.2fx)\n",
		hw.IPC(), tridentsp.Speedup(hw, base))

	cfg := tridentsp.DefaultConfig()
	cfg.HW = tridentsp.HWNone
	sw := tridentsp.Run(cfg, buildChase(nodes, nodeSize), instrs)
	fmt.Printf("self-repairing prefetcher: IPC %.4f  (%.2fx)\n",
		sw.IPC(), tridentsp.Speedup(sw, base))

	fmt.Printf("\noptimizer activity: %d trace(s), %d insertion(s), %d repair(s)\n",
		sw.TracesFormed, sw.Insertions, sw.Repairs)
	fmt.Printf("prefetches executed: %d (%d turned into timely hits)\n",
		sw.Mem.PrefetchesIssued, sw.Mem.ByOutcome[1])
	fmt.Println("\nthe chase has no code-visible stride — the DLT's per-load stride")
	fmt.Println("predictor discovered the arena layout and the optimizer repaired")
	fmt.Println("the prefetch distance until the loop stopped raising events")
}
