package workloads

import (
	"tridentsp/internal/isa"
	"tridentsp/internal/program"
)

// This file holds the pointer-intensive benchmarks, where the paper's
// DLT-assisted classification and jump-pointer dereference prefetching earn
// their keep, and where dot/parser/gap supply the low hot-trace coverage of
// Figure 4.

// Mcf models the SPEC mcf network simplex pricing loop: a strided walk of
// the 64-byte arc array whose head-node pointers scatter into an 8 MB node
// array. The arc stream is easy for every prefetcher; the node dereference
// is invisible to the stream buffers but covered by the optimizer's
// §3.4.2+§3.4.3 combination — dereferencing the pointer field at the
// prefetch distance — which is where software prefetching wins on mcf.
func Mcf(s Scale) *program.Program {
	b := program.NewBuilder("mcf", 0x1000, 0x2000000)
	const arcSize = 64
	arcBytes := bytesAt(s, 6<<20)
	nodeBytes := bytesAt(s, 8<<20)
	arcs := arcBytes / arcSize
	arcBase := b.Alloc(arcBytes)
	nodeBase := b.Alloc(nodeBytes)
	setupResident(b)

	outerForever(b)
	b.Ldi(rBase, arcBase)
	b.Ldi(rCount, arcs-1)
	b.Label("top")
	b.Ld(rVal, rBase, 0)   // arc cost
	b.Ld(rBase2, rBase, 8) // head node pointer: scattered target
	b.Ld(rVal2, rBase, 16) // capacity (same arc line)
	b.Ld(rVal3, rBase2, 0) // node potential: the hard load
	b.Op(isa.SUB, rTmp, rVal, rVal3)
	b.Op(isa.CMPLT, rTmp2, rTmp, rVal2)
	b.CondBr(isa.BEQ, rTmp2, "skip") // pricing test, mostly taken
	b.Op(isa.ADD, rAcc, rAcc, rTmp)
	b.Label("skip")
	residentLoads(b, 20)
	aluPad(b, 280) // ~370 instructions; ~2 lines per iteration
	b.OpI(isa.ADDI, rBase, rBase, arcSize)
	b.OpI(subiOp, rCount, rCount, 1)
	b.CondBr(bneOp, rCount, "top")
	b.Ldi(rBase, arcBase)
	outerEnd(b)

	pr := b.MustBuild()
	r := newRand(0x3cf)
	nodes := nodeBytes / 64
	for i := uint64(0); i < arcs; i++ {
		arc := arcBase + i*arcSize
		pr.Data.Store(arc, r.next()%1000)
		pr.Data.Store(arc+8, nodeBase+(r.next()%nodes)*64)
		pr.Data.Store(arc+16, r.next()%1000)
	}
	seedEvery(pr, nodeBase, nodeBytes, 64)
	return pr
}

// Dot models the pointer-intensive dot benchmark from the paper's prior
// research suite. It alternates a shuffled chunk chase (a serial dependence
// chain no stride predictor can follow) with a long straight-line block of
// scattered reads whose backward branch is hot but whose body far exceeds
// the trace length cap — so most of its misses fall outside hot traces,
// reproducing dot's lowest-coverage bar in Figure 4.
func Dot(s Scale) *program.Program {
	b := program.NewBuilder("dot", 0x1000, 0x2000000)
	const chunkSize = 64
	chainBytes := bytesAt(s, 6<<20)
	tableBytes := bytesAt(s, 8<<20)
	chunks := chainBytes / chunkSize
	arena := b.Alloc(chainBytes)
	table := b.Alloc(tableBytes)
	setupResident(b)
	r := newRand(0xd07)

	outerForever(b)

	// Phase 1: chase 4096 chunks of the shuffled chain.
	b.Ldi(rBase, arena)
	b.Ldi(rCount, 4096)
	b.Label("chase")
	b.Ld(rVal, rBase, 8)
	b.Op(isa.FMUL, rTmp, rVal, rAcc)
	b.Op(isa.FADD, rAcc, rAcc, rTmp)
	residentLoads(b, 6)
	fpPad(b, 24)
	b.Ld(rBase, rBase, 0) // next chunk: shuffled, serial
	b.OpI(subiOp, rCount, rCount, 1)
	b.CondBr(bneOp, rCount, "chase")

	// Phase 2: a 3000-instruction unrolled block of scattered table reads;
	// the enclosing backward branch makes its head hot, but the trace cap
	// covers only the first ~500 instructions.
	b.Ldi(rTblPtr, table)
	b.Ldi(rCount, 8)
	b.Label("block")
	for k := 0; k < 250; k++ {
		off := int64(r.next() % (tableBytes - 8))
		off &^= 7
		b.Ld(rVal2, rTblPtr, off)
		b.Op(isa.FADD, rAcc2, rAcc2, rVal2)
		fpPad(b, 10)
	}
	b.OpI(subiOp, rCount, rCount, 1)
	b.CondBr(bneOp, rCount, "block")
	outerEnd(b)

	pr := b.MustBuild()
	// Shuffled singly-linked chain over all chunks.
	perm := make([]uint64, chunks)
	for i := range perm {
		perm[i] = uint64(i)
	}
	for i := len(perm) - 1; i > 0; i-- {
		j := r.next() % uint64(i+1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	for i := uint64(0); i < chunks; i++ {
		cur := arena + perm[i]*chunkSize
		next := arena + perm[(i+1)%chunks]*chunkSize
		pr.Data.Store(cur, next)
		pr.Data.Store(cur+8, r.next())
	}
	seedEvery(pr, table, tableBytes, 64)
	return pr
}

// Parser models the SPEC parser dictionary: hash-probe loops over an
// out-of-cache bucket table with short, unpredictable chains. Its loads are
// neither stride- nor pointer-prefetchable often enough to matter, so the
// optimizer matures them — parser is the benchmark software prefetching
// cannot help (Figures 4 and 5).
func Parser(s Scale) *program.Program {
	b := program.NewBuilder("parser", 0x1000, 0x2000000)
	tblBytes := bytesAt(s, 8<<20)
	buckets := tblBytes / 8
	table := b.Alloc(tblBytes)
	nodeBytes := bytesAt(s, 4<<20)
	nodes := nodeBytes / 32
	pool := b.Alloc(nodeBytes)
	setupResident(b)

	outerForever(b)
	b.Ldi(rSeed, 88172645463325252)
	b.Ldi(rTblPtr, table)
	b.Ldi(rMask, buckets-1)
	b.Ldi(rCount, 4096)
	b.Label("top")
	// xorshift hash of the "word".
	b.OpI(isa.SLLI, rTmp, rSeed, 13)
	b.Op(isa.XOR, rSeed, rSeed, rTmp)
	b.OpI(isa.SRLI, rTmp, rSeed, 7)
	b.Op(isa.XOR, rSeed, rSeed, rTmp)
	b.OpI(isa.SLLI, rTmp, rSeed, 17)
	b.Op(isa.XOR, rSeed, rSeed, rTmp)
	b.Op(isa.AND, rIdx, rSeed, rMask)
	b.OpI(isa.SLLI, rIdx, rIdx, 3)
	b.Op(isa.ADD, rTmp2, rTblPtr, rIdx)
	b.Ld(rBase2, rTmp2, 0) // bucket head: random index, unprefetchable
	residentLoads(b, 16)
	aluPad(b, 120)
	b.CondBr(isa.BEQ, rBase2, "miss")
	// Walk the chain (1-3 nodes).
	b.Label("walk")
	b.Ld(rVal, rBase2, 8) // key
	b.Op(isa.ADD, rAcc, rAcc, rVal)
	b.Ld(rBase2, rBase2, 0) // next
	b.CondBr(isa.BNE, rBase2, "walk")
	b.Label("miss")
	b.OpI(subiOp, rCount, rCount, 1)
	b.CondBr(bneOp, rCount, "top")
	outerEnd(b)

	pr := b.MustBuild()
	r := newRand(0x9a53e5)
	// Populate a third of the buckets with chains of 1-3 pool nodes.
	nextNode := uint64(0)
	for bkt := uint64(0); bkt < buckets && nextNode+3 < nodes; bkt += 3 {
		chain := 1 + r.next()%3
		var head uint64
		for c := uint64(0); c < chain; c++ {
			node := pool + nextNode*32
			nextNode++
			pr.Data.Store(node, head)
			pr.Data.Store(node+8, r.next())
			head = node
		}
		pr.Data.Store(table+bkt*8, head)
	}
	return pr
}

// Gap models the SPEC gap interpreter: a bytecode dispatch loop whose
// indirect jumps terminate traces after a handful of instructions, with
// handlers that touch a pseudo-random heap (so their misses fall outside
// hot traces and are unprefetchable), plus one small numeric kernel whose
// trace covers nearly all of its own misses — reproducing gap's profile in
// Figure 4: low trace coverage, but almost everything inside the traces is
// prefetched.
func Gap(s Scale) *program.Program {
	b := program.NewBuilder("gap", 0x1000, 0x2000000)
	codeBytes := bytesAt(s, 4<<20)
	heapBytes := bytesAt(s, 8<<20)
	bytecode := b.Alloc(codeBytes)
	heap := b.Alloc(heapBytes)
	vec := b.Alloc(heapBytes / 2)
	setupResident(b)
	const numHandlers = 8

	outerForever(b)

	// Phase 1: interpreter. The handler table is resolved after the build,
	// when label addresses are known.
	tbl := b.AllocWords(make([]uint64, numHandlers)...)
	b.Ldi(rTblPtr, tbl)
	b.Ldi(rBase, bytecode)
	b.Ldi(rCount, 8192)
	b.Label("dispatch")
	b.Ld(rIdx, rBase, 0) // opcode stream: unit stride
	b.OpI(isa.ADDI, rBase, rBase, 8)
	b.OpI(isa.ANDI, rTmp, rIdx, numHandlers-1)
	b.OpI(isa.SLLI, rTmp, rTmp, 3)
	b.Op(isa.ADD, rTmp, rTblPtr, rTmp)
	b.Ld(rJump, rTmp, 0)
	b.Emit(isa.Inst{Op: isa.JMP, Rd: isa.ZeroReg, Ra: rJump})
	for h := 0; h < numHandlers; h++ {
		b.Label("handler" + string(rune('A'+h)))
		// Each handler reads a heap word derived from the opcode value.
		// heapBytes is a power of two, so heapBytes-8 is both the range
		// mask and (with 8-byte opcodes) the alignment mask.
		b.OpI(isa.SRLI, rTmp2, rIdx, 3)
		b.Emit(isa.Inst{Op: isa.LDI, Rd: rTmp, Imm: int64(heapBytes - 8)})
		b.Op(isa.AND, rTmp2, rTmp2, rTmp)
		b.Emit(isa.Inst{Op: isa.LDI, Rd: rVal2, Imm: int64(heap)})
		b.Op(isa.ADD, rTmp2, rTmp2, rVal2)
		b.Ld(rVal, rTmp2, 0)
		b.Op(isa.ADD, rAcc, rAcc, rVal)
		b.OpI(subiOp, rCount, rCount, 1)
		b.CondBr(bneOp, rCount, "dispatch")
		b.Br("kernel")
	}

	// Phase 2: the hot numeric kernel (big-integer style sweep): this is
	// where gap's prefetchable misses live.
	b.Label("kernel")
	b.Ldi(rBase2, vec)
	b.Ldi(rTmp, heapBytes/2/64-1)
	b.Label("ktop")
	b.Ld(rVal, rBase2, 0)
	b.Op(isa.ADD, rAcc, rAcc, rVal)
	residentLoads(b, 12)
	aluPad(b, 160) // ~210 instructions per line
	b.OpI(isa.ADDI, rBase2, rBase2, 64)
	b.OpI(subiOp, rTmp, rTmp, 1)
	b.CondBr(bneOp, rTmp, "ktop")
	b.Ldi(rBase, bytecode)
	b.Ldi(rCount, 8192)
	outerEnd(b)

	pr := b.MustBuild()
	r := newRand(0x6a9)
	for off := uint64(0); off < codeBytes && off < 8192*8; off += 8 {
		pr.Data.Store(bytecode+off, r.next())
	}
	seedEvery(pr, heap, heapBytes, 64)
	seedEvery(pr, vec, heapBytes/2, 64)
	fillHandlerTable(pr, tbl, numHandlers)
	return pr
}

// fillHandlerTable locates the interpreter handlers in gap's code image.
// Handlers follow the indirect JMP of the dispatch loop, each a fixed-size
// body; they are located by scanning for the JMP and slicing after it.
func fillHandlerTable(pr *program.Program, tbl uint64, n int) {
	const handlerLen = 10 // instructions per handler body (see Gap above)
	for i := range pr.Code {
		in := isa.Decode(pr.Code[i])
		if in.Op == isa.JMP {
			first := pr.Base + uint64(i+1)*isa.WordSize
			for h := 0; h < n; h++ {
				pr.Data.Store(tbl+uint64(h)*8, first+uint64(h*handlerLen)*isa.WordSize)
			}
			return
		}
	}
	panic("workloads: gap dispatch JMP not found")
}

// Vis models the vis image-rotation benchmark: a column-major walk over an
// image whose rows were allocated separately (a row-pointer representation,
// so consecutive rows are scattered in memory). The row-pointer loads are a
// clean unit stride; the pixel loads they feed have no address stride at
// all — only the optimizer's producer-dereference prefetching reaches them.
func Vis(s Scale) *program.Program {
	b := program.NewBuilder("vis", 0x1000, 0x2000000)
	size := bytesAt(s, 8<<20)
	const rowBytes = 4096
	rows := size / rowBytes
	rowTab := b.Alloc(rows * 8)
	img := b.Alloc(size)
	out := b.Alloc(size / 4)
	setupResident(b)

	outerForever(b)
	b.Ldi(rIdx, rowBytes/8) // columns (one pixel per 8 bytes)
	b.Ldi(rBase3, 0)        // column byte offset
	b.Label("colloop")
	b.Ldi(rBase, rowTab)
	b.Ldi(rBase2, out)
	b.Ldi(rCount, rows-1)
	b.Label("top")
	b.Ld(rTmp2, rBase, 0) // row pointer: unit stride down the table
	b.Op(isa.ADD, rTmp2, rTmp2, rBase3)
	b.Ld(rVal, rTmp2, 0)  // pixel (r, c): scattered row storage
	b.Ld(rVal2, rTmp2, 8) // pixel (r, c+1): same line, same object
	b.Op(isa.FADD, rTmp, rVal, rVal2)
	b.OpI(isa.SRLI, rTmp, rTmp, 1)
	b.St(rTmp, rBase2, 0)
	residentLoads(b, 16)
	fpPad(b, 200) // ~270 instructions; ~1 line per iteration
	b.OpI(isa.ADDI, rBase2, rBase2, 8)
	b.OpI(isa.ADDI, rBase, rBase, 8) // next row pointer
	b.OpI(subiOp, rCount, rCount, 1)
	b.CondBr(bneOp, rCount, "top")
	b.OpI(isa.ADDI, rBase3, rBase3, 8) // next column
	b.OpI(subiOp, rIdx, rIdx, 1)
	b.CondBr(bneOp, rIdx, "colloop")
	outerEnd(b)
	pr := b.MustBuild()
	// Rows allocated in shuffled order: row r lives at a random slot.
	perm := make([]uint64, rows)
	for i := range perm {
		perm[i] = uint64(i)
	}
	r := newRand(0x715)
	for i := len(perm) - 1; i > 0; i-- {
		j := r.next() % uint64(i+1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	for i := uint64(0); i < rows; i++ {
		pr.Data.Store(rowTab+i*8, img+perm[i]*rowBytes)
	}
	seedEvery(pr, img, size, 64)
	return pr
}
