package workloads

import (
	"tridentsp/internal/isa"
	"tridentsp/internal/program"
)

// This file holds the floating-point benchmarks. Each iteration mixes
// cache-resident work (the bulk of a real SPEC iteration) with a small
// number of delinquent loads, so baselines, coverage, and prefetch gains
// land in the paper's regimes. Bodies are sized per missing cache line:
// roughly 250-350 instructions of resident work per line fetched from
// memory, matching memory-bound SPEC rates of about one DRAM access per few
// hundred instructions.

// Applu models the SPEC applu PDE solver. Its distinguishing property in
// the paper is the enormous inner loop — "over 1000 instructions" — so one
// iteration already spans a full memory latency and a prefetch distance of
// 1 is optimal (§5.3): self-repairing gains nothing over the naive
// estimate, which is exactly the behaviour to reproduce.
func Applu(s Scale) *program.Program {
	b := program.NewBuilder("applu", 0x1000, 0x2000000)
	size := bytesAt(s, 12<<20)
	a := b.Alloc(size)
	setupResident(b)
	const chunk = 256 // 4 lines per iteration
	iters := size/chunk - 1

	outerForever(b)
	b.Ldi(rBase, a)
	b.Ldi(rCount, iters)
	b.Label("top")
	// 4 line-loads with ~340 instructions of SSOR work each.
	for l := 0; l < 4; l++ {
		b.Ld(rVal, rBase, int64(l*64))
		b.Op(isa.FMUL, rAcc, rAcc, rVal)
		residentLoads(b, 16)
		fpPad(b, 270)
	}
	b.OpI(isa.ADDI, rBase, rBase, chunk)
	b.OpI(subiOp, rCount, rCount, 1)
	b.CondBr(bneOp, rCount, "top")
	outerEnd(b)
	pr := b.MustBuild()
	seedEvery(pr, a, size, 64)
	return pr
}

// Swim models the SPEC swim shallow-water kernel: unit-stride sweeps over
// three large arrays with a small body. Its simple short-stride pattern is
// what hardware stream buffers handle best, so software prefetching shows
// no edge here (§5.5) — it merely matches the hardware while paying the
// optimizer's instruction overhead.
func Swim(s Scale) *program.Program {
	b := program.NewBuilder("swim", 0x1000, 0x2000000)
	size := bytesAt(s, 8<<20)
	u := b.Alloc(size)
	v := b.Alloc(size)
	p := b.Alloc(size)
	setupResident(b)
	iters := size/8 - 8

	outerForever(b)
	b.Ldi(rBase, u)
	b.Ldi(rBase2, v)
	b.Ldi(rBase3, p)
	b.Ldi(rCount, iters)
	b.Label("top")
	b.Ld(rVal, rBase, 0)
	b.Ld(rVal2, rBase2, 0)
	b.Ld(rVal3, rBase3, 0)
	b.Op(isa.FADD, rTmp, rVal, rVal2)
	b.Op(isa.FMUL, rTmp, rTmp, rVal3)
	b.Op(isa.FADD, rAcc, rAcc, rTmp)
	b.St(rTmp, rBase3, 0)
	residentLoads(b, 8)
	fpPad(b, 60) // ~105 instructions per iteration; 3 lines per 8 iters
	b.OpI(isa.ADDI, rBase, rBase, 8)
	b.OpI(isa.ADDI, rBase2, rBase2, 8)
	b.OpI(isa.ADDI, rBase3, rBase3, 8)
	b.OpI(subiOp, rCount, rCount, 1)
	b.CondBr(bneOp, rCount, "top")
	outerEnd(b)
	pr := b.MustBuild()
	seedEvery(pr, u, size, 64)
	seedEvery(pr, v, size, 64)
	seedEvery(pr, p, size, 64)
	return pr
}

// Mgrid models the SPEC mgrid multigrid solver: the same grid touched at a
// unit stride and at a plane stride, so the optimizer handles two stride
// classes in one trace.
func Mgrid(s Scale) *program.Program {
	b := program.NewBuilder("mgrid", 0x1000, 0x2000000)
	size := bytesAt(s, 16<<20)
	grid := b.Alloc(size)
	setupResident(b)
	plane := uint64(32 << 10)
	iters := (size - 2*plane) / 64

	outerForever(b)
	b.Ldi(rBase, grid)
	b.Ldi(rCount, iters)
	b.Label("top")
	b.Ld(rVal, rBase, 0)             // unit (line) stride
	b.Ld(rVal3, rBase, int64(plane)) // next plane: 2nd line per iteration
	b.Op(isa.FADD, rTmp, rVal, rVal3)
	b.Op(isa.FMUL, rAcc, rAcc, rTmp)
	residentLoads(b, 24)
	fpPad(b, 420) // ~530 instructions; 2 lines per iteration
	b.OpI(isa.ADDI, rBase, rBase, 64)
	b.OpI(subiOp, rCount, rCount, 1)
	b.CondBr(bneOp, rCount, "top")
	outerEnd(b)
	pr := b.MustBuild()
	seedEvery(pr, grid, size, 64)
	return pr
}

// Art models the SPEC art neural-network simulator: every iteration reads
// one element from each of ten weight planes of the same matrix. Ten
// concurrent streams thrash the eight hardware stream buffers — this is the
// benchmark where software prefetching covers what the hardware cannot.
func Art(s Scale) *program.Program {
	b := program.NewBuilder("art", 0x1000, 0x2000000)
	size := bytesAt(s, 10<<20)
	w := b.Alloc(size)
	setupResident(b)
	const planes = 16
	plane := size / planes
	iters := plane/8 - 8

	outerForever(b)
	b.Ldi(rBase, w)
	b.Ldi(rCount, iters)
	b.Label("top")
	// Sixteen plane loads off one base register: a single same-object
	// group for the optimizer, sixteen distinct streams for the eight
	// hardware stream buffers — which therefore thrash.
	for k := 0; k < planes; k++ {
		b.Ld(rVal, rBase, int64(uint64(k)*plane))
		b.Op(isa.FMUL, rTmp, rVal, rAcc)
		b.Op(isa.FADD, rAcc, rAcc, rTmp)
	}
	residentLoads(b, 24)
	fpPad(b, 400) // ~560 instructions; 16 lines per 8 iterations
	b.OpI(isa.ADDI, rBase, rBase, 8)
	b.OpI(subiOp, rCount, rCount, 1)
	b.CondBr(bneOp, rCount, "top")
	outerEnd(b)
	pr := b.MustBuild()
	seedEvery(pr, w, size, 64)
	return pr
}

// Equake models the SPEC equake sparse matrix-vector product: unit streams
// over the element and index arrays plus an indirect gather whose addresses
// neither predictor can stride-follow. The gather matures; the streams are
// already handled by the hardware — equake is one of the benchmarks where
// hardware prefetching alone is competitive (§5.5).
func Equake(s Scale) *program.Program {
	b := program.NewBuilder("equake", 0x1000, 0x2000000)
	valBytes := bytesAt(s, 6<<20)
	vecBytes := uint64(32 << 10) // gather vector stays cache-resident: its
	// misses are cheap and never delinquent, so — as the paper observes —
	// equake leaves software prefetching nothing to add over the hardware
	vals := b.Alloc(valBytes)
	idx := b.Alloc(valBytes)
	x := b.Alloc(vecBytes)
	setupResident(b)
	iters := valBytes/8 - 1

	outerForever(b)
	b.Ldi(rBase, vals)
	b.Ldi(rBase2, idx)
	b.Ldi(rTblPtr, x)
	b.Ldi(rCount, iters)
	b.Label("top")
	b.Ld(rVal, rBase, 0)  // matrix value: unit stride
	b.Ld(rIdx, rBase2, 0) // column index: unit stride
	b.Op(isa.ADD, rTmp, rTblPtr, rIdx)
	b.Ld(rVal2, rTmp, 0) // gather from x: irregular
	b.Op(isa.FMUL, rTmp2, rVal, rVal2)
	b.Op(isa.FADD, rAcc, rAcc, rTmp2)
	residentLoads(b, 12)
	fpPad(b, 130) // ~190 instructions; ~1.25 lines per iteration
	b.OpI(isa.ADDI, rBase, rBase, 8)
	b.OpI(isa.ADDI, rBase2, rBase2, 8)
	b.OpI(subiOp, rCount, rCount, 1)
	b.CondBr(bneOp, rCount, "top")
	outerEnd(b)
	pr := b.MustBuild()
	r := newRand(0xea0e)
	for off := uint64(0); off < valBytes; off += 8 {
		pr.Data.Store(idx+off, (r.next()%(vecBytes/8))*8)
	}
	seedEvery(pr, vals, valBytes, 64)
	seedEvery(pr, x, vecBytes, 64)
	return pr
}

// Facerec models the SPEC facerec image matcher: one long-stride scan with
// a mid-sized body. The paper notes its naive distance estimate is already
// sufficient, so self-repairing adds nothing beyond the whole-object
// scheme.
func Facerec(s Scale) *program.Program {
	b := program.NewBuilder("facerec", 0x1000, 0x2000000)
	size := bytesAt(s, 8<<20)
	img := b.Alloc(size)
	setupResident(b)
	iters := size/128 - 1

	outerForever(b)
	b.Ldi(rBase, img)
	b.Ldi(rCount, iters)
	b.Label("top")
	b.Ld(rVal, rBase, 0) // stride 128: one new line per iteration
	b.Op(isa.FMUL, rAcc, rAcc, rVal)
	residentLoads(b, 16)
	fpPad(b, 220) // ~290 instructions per line
	b.OpI(isa.ADDI, rBase, rBase, 128)
	b.OpI(subiOp, rCount, rCount, 1)
	b.CondBr(bneOp, rCount, "top")
	outerEnd(b)
	pr := b.MustBuild()
	seedEvery(pr, img, size, 128)
	return pr
}

// Fma3d models the SPEC fma3d crash solver: each 256-byte element spans two
// touched cache lines (header and stress block) — the canonical whole-
// object case — and carries a material pointer into a scattered property
// table, which only the optimizer's producer-dereference prefetching can
// cover.
func Fma3d(s Scale) *program.Program {
	b := program.NewBuilder("fma3d", 0x1000, 0x2000000)
	size := bytesAt(s, 8<<20)
	matBytes := bytesAt(s, 6<<20)
	elems := b.Alloc(size)
	mats := b.Alloc(matBytes)
	setupResident(b)
	iters := size/256 - 1

	outerForever(b)
	b.Ldi(rBase, elems)
	b.Ldi(rCount, iters)
	b.Label("top")
	b.Ld(rVal, rBase, 0)    // element header
	b.Ld(rBase2, rBase, 16) // material pointer: scattered target
	b.Ld(rVal3, rBase, 128) // stress block: second line, same object
	b.Ld(rVal2, rBase2, 0)  // material properties: the hard load
	b.Op(isa.FMUL, rTmp, rVal, rVal2)
	b.Op(isa.FADD, rAcc, rAcc, rTmp)
	b.Op(isa.FMUL, rTmp2, rVal3, rAcc)
	residentLoads(b, 32)
	fpPad(b, 560) // ~700 instructions; ~3 lines per iteration
	b.OpI(isa.ADDI, rBase, rBase, 256)
	b.OpI(subiOp, rCount, rCount, 1)
	b.CondBr(bneOp, rCount, "top")
	outerEnd(b)
	pr := b.MustBuild()
	r := newRand(0xf3a)
	for off := uint64(0); off < size; off += 256 {
		pr.Data.Store(elems+off, r.next())
		pr.Data.Store(elems+off+16, mats+(r.next()%(matBytes/64))*64)
		pr.Data.Store(elems+off+128, r.next())
	}
	seedEvery(pr, mats, matBytes, 64)
	return pr
}

// Galgel models the SPEC galgel fluid solver: nine simultaneous column
// sweeps of a matrix (blocked Gauss elimination), one stride class but more
// streams than the hardware has buffers.
func Galgel(s Scale) *program.Program {
	b := program.NewBuilder("galgel", 0x1000, 0x2000000)
	size := bytesAt(s, 9<<20)
	m := b.Alloc(size)
	setupResident(b)
	const cols = 9
	colBytes := size / cols
	iters := colBytes/8 - 8

	outerForever(b)
	b.Ldi(rBase, m)
	b.Ldi(rCount, iters)
	b.Label("top")
	for k := 0; k < cols; k++ {
		b.Ld(rVal, rBase, int64(uint64(k)*colBytes))
		b.Op(isa.FMUL, rAcc, rAcc, rVal)
		b.Op(isa.FADD, rAcc2, rAcc2, rVal)
	}
	residentLoads(b, 16)
	fpPad(b, 180) // ~260 instructions; 9 lines per 8 iterations
	b.OpI(isa.ADDI, rBase, rBase, 8)
	b.OpI(subiOp, rCount, rCount, 1)
	b.CondBr(bneOp, rCount, "top")
	outerEnd(b)
	pr := b.MustBuild()
	seedEvery(pr, m, size, 64)
	return pr
}

// Wupwise models the SPEC wupwise QCD kernel: two gauge/spinor streams with
// an FP-heavy body; comfortably covered by both prefetchers once warm.
func Wupwise(s Scale) *program.Program {
	b := program.NewBuilder("wupwise", 0x1000, 0x2000000)
	size := bytesAt(s, 8<<20)
	gauge := b.Alloc(size)
	spinor := b.Alloc(size / 2)
	setupResident(b)
	iters := size/128 - 1

	outerForever(b)
	b.Ldi(rBase, gauge)
	b.Ldi(rBase2, spinor)
	b.Ldi(rCount, iters)
	b.Label("top")
	b.Ld(rVal, rBase, 0)   // stride 128: one line per iteration
	b.Ld(rVal3, rBase2, 0) // stride 64: one line per iteration
	b.Op(isa.FMUL, rTmp, rVal, rVal3)
	b.Op(isa.FADD, rAcc, rAcc, rTmp)
	residentLoads(b, 24)
	fpPad(b, 420) // ~520 instructions; 2 lines per iteration
	b.OpI(isa.ADDI, rBase, rBase, 128)
	b.OpI(isa.ADDI, rBase2, rBase2, 64)
	b.OpI(subiOp, rCount, rCount, 1)
	b.CondBr(bneOp, rCount, "top")
	outerEnd(b)
	pr := b.MustBuild()
	seedEvery(pr, gauge, size, 64)
	seedEvery(pr, spinor, size/2, 64)
	return pr
}
