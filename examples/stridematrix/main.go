// Stridematrix sweeps a large matrix with a multi-field element access and
// compares the paper's three software prefetching schemes (Figure 5): the
// prior-work "basic" estimate, whole-object grouping, and the adaptive
// self-repairing scheme, all over the same hardware-prefetching baseline.
//
//	go run ./examples/stridematrix
package main

import (
	"fmt"

	"tridentsp"
	"tridentsp/internal/isa"
)

// buildSweep walks elemSize-byte elements of an 8 MB matrix. Each element
// spans two touched cache lines (a same-object group) and carries a pointer
// into a scattered 6 MB property table — the indirection only the whole-
// object scheme's jump-pointer dereference can prefetch.
func buildSweep() *tridentsp.Program {
	const size = 8 << 20
	const propBytes = 6 << 20
	const elemSize = 256
	b := tridentsp.NewBuilder("matrix-sweep", 0x1000, 0x1000000)
	m := b.Alloc(size)
	props := b.Alloc(propBytes)

	b.Ldi(6, 1<<40)
	b.Label("outer")
	b.Ldi(1, m)
	b.Ldi(4, size/elemSize-1)
	b.Label("top")
	b.Ld(10, 1, 0)   // header
	b.Ld(2, 1, 8)    // property pointer: scattered target
	b.Ld(12, 1, 128) // second line of the element
	b.Ld(11, 2, 0)   // property record: the hard load
	b.Op(isa.FMUL, 13, 10, 11)
	b.Op(isa.FADD, 14, 14, 13)
	b.Op(isa.FMUL, 15, 12, 14)
	for i := 0; i < 160; i++ {
		b.Op(isa.FADD, 16, 16, 15)
	}
	b.OpI(isa.ADDI, 1, 1, elemSize)
	b.OpI(isa.SUBI, 4, 4, 1)
	b.CondBr(isa.BNE, 4, "top")
	b.OpI(isa.SUBI, 6, 6, 1)
	b.CondBr(isa.BNE, 6, "outer")
	b.Halt()

	p := b.MustBuild()
	seed := uint64(0x5eed | 1)
	next := func() uint64 {
		seed ^= seed << 13
		seed ^= seed >> 7
		seed ^= seed << 17
		return seed
	}
	for off := uint64(0); off < size; off += elemSize {
		p.Data.Store(m+off, next())
		p.Data.Store(m+off+8, props+(next()%(propBytes/64))*64)
		p.Data.Store(m+off+128, next())
	}
	return p
}

func main() {
	const instrs = 3_000_000
	base := tridentsp.Run(tridentsp.BaselineConfig(tridentsp.HW8x8), buildSweep(), instrs)
	fmt.Printf("hardware prefetching only: IPC %.4f\n\n", base.IPC())

	for _, mode := range []struct {
		sw   tridentsp.SWMode
		name string
	}{
		{tridentsp.SWBasic, "basic (eq. 2 estimate, per-load)"},
		{tridentsp.SWWholeObject, "whole-object (same-object groups)"},
		{tridentsp.SWSelfRepair, "self-repairing (adaptive distance)"},
	} {
		cfg := tridentsp.DefaultConfig()
		cfg.SW = mode.sw
		res := tridentsp.Run(cfg, buildSweep(), instrs)
		fmt.Printf("%-36s IPC %.4f  speedup %.2fx  (repairs %d, prefetches %d)\n",
			mode.name, res.IPC(), tridentsp.Speedup(res, base),
			res.Repairs, res.Mem.PrefetchesIssued)
	}
	fmt.Println("\nthe jump: basic's per-load prefetches cannot reach the property")
	fmt.Println("records, while whole-object/self-repairing dereference the element's")
	fmt.Println("property pointer at the prefetch distance (§3.4.2 + §3.4.3)")
}
