package cpu

import (
	"sync"

	"tridentsp/internal/isa"
	"tridentsp/internal/memsys"
)

// This file implements the third level of the simulator's fast path: a
// threaded-code JIT over superblocks. Compile lowers a Block into a chain of
// specialized Go closures — register indices and immediates folded into
// captures, the zero-register and taint-propagation cases resolved at compile
// time, runs of plain ALU instructions fused into a single call, branch
// targets precomputed — and ExecCompiled drives the chain with exactly the
// stop/resume and SBHooks semantics of ExecSuperBlock. The compiled form
// captures no slice of the source image (everything it needs is copied into
// the segment descriptors), so a CompiledBlock never pins a patched-over
// image and is invalidated for free by the block cache's generation counter.
//
// The equivalence obligation is the same as ExecSuperBlock's, inherited
// opcode by opcode: post-commit stop conditions (weight budget, issue-unit
// horizon cap, a retired load the fast probe declined, block end) are
// evaluated after each commit, NeedSlow stops happen *before* the offending
// instruction, hooked loads and branches pre-stop near the horizon, and a
// taken back-edge folds to the block entry under the identical conditions.
// TestExecCompiledMatchesInterpreter and the three-way differential fuzzer
// hold the two executors bit-identical.

// segKind classifies one compiled segment.
type segKind uint8

const (
	segALU segKind = iota
	segLoad
	segLDNF
	segStore
	segPrefetch
	segBranch
)

// jitSeg is one step of the compiled chain: a fused run of plain ALU
// instructions, a single memory operation with folded operands, or the
// terminating conditional branch.
type jitSeg struct {
	kind segKind
	idx  int    // index of the segment's first instruction in the block
	n    int    // instructions in the segment (1 unless segALU)
	w    uint64 // total weight of the segment
	pc   uint64 // address of the segment's first instruction

	// segALU: the whole run as one call.
	fused func(*Thread)

	// Memory operations, operands folded at compile time.
	rd, ra isa.Reg
	rb     isa.Reg
	imm    uint64

	// segBranch: specialized direction test, precomputed taken target, and
	// whether the taken edge folds back to the block entry. in keeps a copy
	// of the instruction for the branch hook.
	cond   func(*Thread) bool
	target uint64
	isLoop bool
	in     isa.Inst
}

// CompiledBlock is one superblock lowered to a closure chain. It is immutable
// after Compile and holds no reference to the decoded image it came from.
type CompiledBlock struct {
	entry   uint64
	n       int
	segs    []jitSeg
	ops     []func(*Thread) // per-instruction closures for stepwise ALU tails
	weights []uint64        // per-instruction weights (1 when the source had none)

	// srcInsts/srcWeights are private copies of the source block, kept so a
	// generation bump can revalidate the chain by content instead of
	// recompiling it. Self-repair patches one immediate at a time but the
	// counter bump invalidates every block in the image; comparing a few
	// dozen words per block is far cheaper than re-warming and recompiling
	// the whole compiled tier after every PatchImm.
	srcInsts   []isa.Inst
	srcWeights []int
}

// Matches reports whether the block's current content is identical to the
// source this chain was compiled from, meaning the chain is still valid.
func (cb *CompiledBlock) Matches(b Block) bool {
	if len(b.Insts) != len(cb.srcInsts) {
		return false
	}
	for i, in := range b.Insts {
		if in != cb.srcInsts[i] {
			return false
		}
	}
	if (b.Weights == nil) != (cb.srcWeights == nil) {
		return false
	}
	for i, w := range b.Weights {
		if w != cb.srcWeights[i] {
			return false
		}
	}
	return true
}

// Entry returns the block's entry address (test helper).
func (cb *CompiledBlock) Entry() uint64 { return cb.entry }

// Len returns the instruction count (test helper).
func (cb *CompiledBlock) Len() int { return cb.n }

// jitNop is the compiled form of NOP (and of any ALU write to the hardwired
// zero register, which has no architectural effect).
func jitNop(*Thread) {}

// taint3 is the three-register taint-propagation rule shared by the compiled
// ALU closures (updateTaint's taintRaRb rule).
func (t *Thread) taint3(rd, ra, rb isa.Reg) {
	if s := t.taintSrc[ra]; s != 0 {
		t.taintSrc[rd] = s
	} else {
		t.taintSrc[rd] = t.taintSrc[rb]
	}
}

// compileALU lowers one plain ALU instruction to a closure with operands,
// immediates, zero-register handling, and the taint rule folded in. It
// returns nil for opcodes that are not memberPlain.
func compileALU(in isa.Inst) func(*Thread) {
	rd, ra, rb := in.Rd, in.Ra, in.Rb
	imm := uint64(in.Imm)
	if in.Op == isa.NOP || rd == isa.ZeroReg {
		// No destination: none of the plain ALU opcodes has a side effect
		// beyond the register write and its taint, so this is a pure nop
		// (it still charges its issue slot and weight — the driver's job).
		switch blockMember(in.Op) {
		case memberPlain:
			return jitNop
		}
		return nil
	}
	switch in.Op {
	case isa.ADD, isa.FADD:
		return func(t *Thread) { t.regs[rd] = t.regs[ra] + t.regs[rb]; t.taint3(rd, ra, rb) }
	case isa.SUB:
		return func(t *Thread) { t.regs[rd] = t.regs[ra] - t.regs[rb]; t.taint3(rd, ra, rb) }
	case isa.MUL, isa.FMUL:
		return func(t *Thread) { t.regs[rd] = t.regs[ra] * t.regs[rb]; t.taint3(rd, ra, rb) }
	case isa.AND:
		return func(t *Thread) { t.regs[rd] = t.regs[ra] & t.regs[rb]; t.taint3(rd, ra, rb) }
	case isa.OR:
		return func(t *Thread) { t.regs[rd] = t.regs[ra] | t.regs[rb]; t.taint3(rd, ra, rb) }
	case isa.XOR:
		return func(t *Thread) { t.regs[rd] = t.regs[ra] ^ t.regs[rb]; t.taint3(rd, ra, rb) }
	case isa.SLL:
		return func(t *Thread) { t.regs[rd] = t.regs[ra] << (t.regs[rb] & 63); t.taint3(rd, ra, rb) }
	case isa.SRL:
		return func(t *Thread) { t.regs[rd] = t.regs[ra] >> (t.regs[rb] & 63); t.taint3(rd, ra, rb) }
	case isa.CMPLT:
		return func(t *Thread) {
			t.regs[rd] = b2u(int64(t.regs[ra]) < int64(t.regs[rb]))
			t.taint3(rd, ra, rb)
		}
	case isa.CMPEQ:
		return func(t *Thread) { t.regs[rd] = b2u(t.regs[ra] == t.regs[rb]); t.taint3(rd, ra, rb) }

	case isa.ADDI, isa.LDA:
		return func(t *Thread) { t.regs[rd] = t.regs[ra] + imm; t.taintSrc[rd] = t.taintSrc[ra] }
	case isa.SUBI:
		return func(t *Thread) { t.regs[rd] = t.regs[ra] - imm; t.taintSrc[rd] = t.taintSrc[ra] }
	case isa.MULI:
		return func(t *Thread) { t.regs[rd] = t.regs[ra] * imm; t.taintSrc[rd] = t.taintSrc[ra] }
	case isa.ANDI:
		return func(t *Thread) { t.regs[rd] = t.regs[ra] & imm; t.taintSrc[rd] = t.taintSrc[ra] }
	case isa.ORI:
		return func(t *Thread) { t.regs[rd] = t.regs[ra] | imm; t.taintSrc[rd] = t.taintSrc[ra] }
	case isa.XORI:
		return func(t *Thread) { t.regs[rd] = t.regs[ra] ^ imm; t.taintSrc[rd] = t.taintSrc[ra] }
	case isa.SLLI:
		sh := imm & 63
		return func(t *Thread) { t.regs[rd] = t.regs[ra] << sh; t.taintSrc[rd] = t.taintSrc[ra] }
	case isa.SRLI:
		sh := imm & 63
		return func(t *Thread) { t.regs[rd] = t.regs[ra] >> sh; t.taintSrc[rd] = t.taintSrc[ra] }
	case isa.CMPLTI:
		si := in.Imm
		return func(t *Thread) {
			t.regs[rd] = b2u(int64(t.regs[ra]) < si)
			t.taintSrc[rd] = t.taintSrc[ra]
		}
	case isa.CMPEQI:
		return func(t *Thread) { t.regs[rd] = b2u(t.regs[ra] == imm); t.taintSrc[rd] = t.taintSrc[ra] }
	case isa.MOVE:
		return func(t *Thread) { t.regs[rd] = t.regs[ra]; t.taintSrc[rd] = t.taintSrc[ra] }
	case isa.LDI:
		return func(t *Thread) { t.regs[rd] = imm; t.taintSrc[rd] = 0 }
	case isa.LDIH:
		low := uint64(uint32(in.Imm))
		return func(t *Thread) {
			t.regs[rd] = t.regs[ra]<<32 | low
			t.taintSrc[rd] = t.taintSrc[ra]
		}
	}
	return nil
}

// compileCond lowers a conditional branch's direction test.
func compileCond(op isa.Op, ra isa.Reg) func(*Thread) bool {
	switch op {
	case isa.BEQ:
		return func(t *Thread) bool { return t.regs[ra] == 0 }
	case isa.BNE:
		return func(t *Thread) bool { return t.regs[ra] != 0 }
	case isa.BLT:
		return func(t *Thread) bool { return int64(t.regs[ra]) < 0 }
	case isa.BGE:
		return func(t *Thread) bool { return int64(t.regs[ra]) >= 0 }
	}
	return nil
}

// jitShared is the process-wide compiled-block cache. A CompiledBlock is
// immutable and closes over nothing but instruction content and absolute
// addresses, so two caches looking at identical code at the same address can
// share one chain. The experiment harness runs the same master programs
// through dozens of freshly constructed systems (one per configuration per
// figure), and without sharing each of them recompiled the same blocks from
// scratch — compilation was a top-five profile entry for whole-figure runs.
// Keys carry a content hash; a hit still verifies with Matches before reuse,
// so a collision degrades to a recompile, never to wrong code.
//
// The cache is sharded by key hash: parallel sampled windows run many
// Systems of the same workload concurrently, all compiling the same hot
// blocks at once, and a single mutex over one map serialized every
// promotion across the pool (visible as lock contention in the race-leg
// profiles). Sixteen shards with per-shard mutexes keep the fast path one
// uncontended lock.
const jitShardCount = 16 // power of two; shard picked from the content hash

type jitShard struct {
	mu sync.Mutex
	m  map[jitKey]*CompiledBlock
}

var jitShards [jitShardCount]jitShard

// jitShardCap bounds each shard; on overflow the shard's map is dropped (a
// simple epoch flush — long test runs build many distinct programs). The
// total capacity matches the previous single-map bound.
const jitShardCap = (1 << 14) / jitShardCount

// shardFor routes a key to its shard. The content hash's low bits are
// well-mixed (FNV-1a), and folding in the entry address separates identical
// bodies placed at different addresses.
func shardFor(k jitKey) *jitShard {
	return &jitShards[(k.hash^k.entry)&(jitShardCount-1)]
}

type jitKey struct {
	entry uint64
	n     int
	hash  uint64
}

// blockKey fingerprints a block's content (FNV-1a over fields and weights).
func blockKey(b Block, entry uint64) jitKey {
	h := uint64(1469598103934665603)
	mix := func(v uint64) {
		h = (h ^ v) * 1099511628211
	}
	for _, in := range b.Insts {
		mix(uint64(in.Op)<<24 | uint64(in.Rd)<<16 | uint64(in.Ra)<<8 | uint64(in.Rb))
		mix(uint64(in.Imm))
	}
	for _, w := range b.Weights {
		mix(uint64(w) + 0x9e3779b97f4a7c15)
	}
	return jitKey{entry: entry, n: len(b.Insts), hash: h}
}

// Compile lowers b, whose first instruction sits at entry, into a
// CompiledBlock, consulting the shared cache first. b must be a well-formed
// superblock (member instructions only, at most one conditional branch, in
// final position); Compile returns nil if it encounters anything else, and
// the caller falls back to the interpreter.
func Compile(b Block, entry uint64) *CompiledBlock {
	if len(b.Insts) == 0 {
		return nil
	}
	k := blockKey(b, entry)
	sh := shardFor(k)
	sh.mu.Lock()
	cb := sh.m[k]
	sh.mu.Unlock()
	if cb != nil && cb.entry == entry && cb.Matches(b) {
		return cb
	}
	cb = compileBlock(b, entry)
	if cb == nil {
		return nil
	}
	sh.mu.Lock()
	if len(sh.m) >= jitShardCap {
		sh.m = nil
	}
	if sh.m == nil {
		sh.m = map[jitKey]*CompiledBlock{}
	}
	sh.m[k] = cb
	sh.mu.Unlock()
	return cb
}

// compileBlock does the actual lowering (see Compile).
func compileBlock(b Block, entry uint64) *CompiledBlock {
	n := len(b.Insts)
	if n == 0 {
		return nil
	}
	cb := &CompiledBlock{
		entry:    entry,
		n:        n,
		ops:      make([]func(*Thread), n),
		weights:  make([]uint64, n),
		srcInsts: append([]isa.Inst(nil), b.Insts...),
	}
	if b.Weights != nil {
		cb.srcWeights = append([]int(nil), b.Weights...)
	}
	for i := 0; i < n; i++ {
		if b.Weights != nil {
			cb.weights[i] = uint64(b.Weights[i])
		} else {
			cb.weights[i] = 1
		}
	}

	for i := 0; i < n; {
		in := b.Insts[i]
		pc := entry + uint64(i)*isa.WordSize
		switch blockMember(in.Op) {
		case memberPlain:
			// Extend the ALU run as far as it goes.
			j := i
			var w uint64
			nops := 0
			for j < n && blockMember(b.Insts[j].Op) == memberPlain {
				op := compileALU(b.Insts[j])
				if op == nil {
					return nil
				}
				cb.ops[j] = op
				if b.Insts[j].Op == isa.NOP || b.Insts[j].Rd == isa.ZeroReg {
					nops++
				}
				w += cb.weights[j]
				j++
			}
			run := cb.ops[i:j]
			sg := jitSeg{kind: segALU, idx: i, n: j - i, w: w, pc: pc}
			if nops == 0 {
				sg.fused = fuseRunDense(run)
			} else {
				sg.fused = fuseSparse(run, b.Insts[i:j])
			}
			cb.segs = append(cb.segs, sg)
			i = j

		case memberMem:
			sg := jitSeg{
				idx: i, n: 1, w: cb.weights[i], pc: pc,
				rd: in.Rd, ra: in.Ra, rb: in.Rb, imm: uint64(in.Imm),
			}
			switch in.Op {
			case isa.LD:
				sg.kind = segLoad
			case isa.LDNF:
				sg.kind = segLDNF
			case isa.ST:
				sg.kind = segStore
			case isa.PREFETCH:
				sg.kind = segPrefetch
			}
			cb.segs = append(cb.segs, sg)
			i++

		case memberBranch:
			if i != n-1 {
				return nil // branch not in final position: malformed block
			}
			sg := jitSeg{
				kind: segBranch, idx: i, n: 1, w: cb.weights[i], pc: pc,
				cond:   compileCond(in.Op, in.Ra),
				target: isa.BranchTarget(pc, in),
				in:     in,
			}
			sg.isLoop = sg.target == entry
			cb.segs = append(cb.segs, sg)
			i++

		default:
			return nil
		}
	}
	return cb
}

// fuseRunDense fuses a nop-free run into a single call.
func fuseRunDense(fs []func(*Thread)) func(*Thread) {
	switch len(fs) {
	case 0:
		return jitNop
	case 1:
		return fs[0]
	case 2:
		f0, f1 := fs[0], fs[1]
		return func(t *Thread) { f0(t); f1(t) }
	case 3:
		f0, f1, f2 := fs[0], fs[1], fs[2]
		return func(t *Thread) { f0(t); f1(t); f2(t) }
	case 4:
		f0, f1, f2, f3 := fs[0], fs[1], fs[2], fs[3]
		return func(t *Thread) { f0(t); f1(t); f2(t); f3(t) }
	default:
		body := make([]func(*Thread), len(fs))
		copy(body, fs)
		return func(t *Thread) {
			for _, f := range body {
				f(t)
			}
		}
	}
}

// fuseSparse fuses a run that contains nops, eliding them from the body.
func fuseSparse(fs []func(*Thread), ins []isa.Inst) func(*Thread) {
	body := make([]func(*Thread), 0, len(fs))
	for k, f := range fs {
		if ins[k].Op == isa.NOP || ins[k].Rd == isa.ZeroReg {
			continue
		}
		body = append(body, f)
	}
	return fuseRunDense(body)
}

// ExecCompiled retires instructions from cb under exactly ExecSuperBlock's
// contract: stop after the instruction whose commit reaches the weight
// budget or the horizon's issue-unit cap, stop after a load the fast probe
// declined (retired through demandLoad), stop *before* any instruction that
// needs the slow path (NeedSlow, with t.PC() addressing it), pre-stop
// hooked loads and branches that might cross the horizon, fold taken
// back-edges onto the entry, and leave committed/PC exactly as the
// interpreter would. The caller guarantees t.PC() == cb.Entry() and the
// thread is not halted.
func (t *Thread) ExecCompiled(cb *CompiledBlock, weightBudget uint64, horizon int64, hooks *SBHooks) SBExec {
	var (
		hookLoad   func(pc, addr, value uint64, res memsys.Result, now int64) bool
		hookBranch func(pc uint64, in *isa.Inst, taken bool, now int64) bool
		hookLoop   func(now int64)
		missStop   bool // a declined hooked load pre-stops (StopBeforeMiss)
	)
	if hooks != nil {
		hookLoad, hookBranch, hookLoop = hooks.Load, hooks.Branch, hooks.LoopBack
		missStop = hookLoad != nil && hooks.StopBeforeMiss
	}
	unitsCap, brCap := t.sbCaps(horizon, hookBranch != nil)
	units := t.unitsPerInst
	if t.interfering {
		units += t.cfg.InterferenceNum
	}
	memOK := t.hier != nil && t.mem != nil
	loadFastOK := memOK && t.hier.L1Latency() <= t.cfg.OverlapWindow

	var ex SBExec
	si := 0
	for {
		sg := &cb.segs[si]
		switch sg.kind {
		case segALU:
			// Whole-run fast case: when the run's final commit lands strictly
			// below both the weight budget and the unit cap, no intermediate
			// post-commit check can fire either (both accumulators increase
			// monotonically), so the fused body runs without per-instruction
			// bookkeeping.
			addUnits := int64(sg.n) * units
			if ex.Weight+sg.w < weightBudget && t.issueUnits+addUnits < unitsCap {
				sg.fused(t)
				t.issueUnits += addUnits
				ex.N += sg.n
				ex.Weight += sg.w
				if si+1 == len(cb.segs) {
					// Block ends in a straight-line instruction.
					t.pc = sg.pc + uint64(sg.n)*isa.WordSize
					t.committed += uint64(ex.N)
					return ex
				}
				si++
				continue
			}
			// Stepwise tail: some instruction in this run crosses the budget
			// or the cap; commit one at a time with the interpreter's exact
			// post-commit checks.
			for j := 0; j < sg.n; j++ {
				k := sg.idx + j
				cb.ops[k](t)
				t.issueUnits += units
				ex.N++
				ex.Weight += cb.weights[k]
				if ex.Weight >= weightBudget || t.issueUnits >= unitsCap || k+1 == cb.n {
					t.pc = cb.entry + uint64(k+1)*isa.WordSize
					t.committed += uint64(ex.N)
					return ex
				}
			}
			si++

		case segLoad:
			if !memOK || (hookLoad != nil && t.issueUnits+units >= unitsCap) {
				return t.jitNeedSlow(sg.pc, &ex)
			}
			addr := t.regs[sg.ra] + sg.imm
			var res memsys.Result
			ok := false
			if loadFastOK {
				res, ok = t.hier.LoadFast(sg.pc, addr, t.Now())
			}
			if !ok {
				if missStop {
					return t.jitNeedSlow(sg.pc, &ex)
				}
				res = t.demandLoad(sg.pc, sg.ra, addr)
			}
			v := t.mem.Load(addr)
			if sg.rd != isa.ZeroReg {
				t.regs[sg.rd] = v
				t.taintSrc[sg.rd] = sg.pc
			}
			ex.Loads++
			if res.WouldMiss() {
				ex.WouldMiss++
			}
			t.issueUnits += units
			ex.N++
			ex.Weight += sg.w
			stop := false
			if hookLoad != nil {
				stop = hookLoad(sg.pc, addr, v, res, t.Now())
			}
			if stop || !ok || ex.Weight >= weightBudget || t.issueUnits >= unitsCap || sg.idx+1 == cb.n {
				t.pc = sg.pc + isa.WordSize
				t.committed += uint64(ex.N)
				return ex
			}
			si++

		case segLDNF:
			if !memOK {
				return t.jitNeedSlow(sg.pc, &ex)
			}
			addr := t.regs[sg.ra] + sg.imm
			t.hier.Prefetch(addr, t.Now())
			var v uint64
			if t.mem.Valid(addr) {
				v = t.mem.Load(addr)
			}
			if sg.rd != isa.ZeroReg {
				t.regs[sg.rd] = v
				t.taintSrc[sg.rd] = 0
			}
			t.issueUnits += units
			ex.N++
			ex.Weight += sg.w
			if ex.Weight >= weightBudget || t.issueUnits >= unitsCap || sg.idx+1 == cb.n {
				t.pc = sg.pc + isa.WordSize
				t.committed += uint64(ex.N)
				return ex
			}
			si++

		case segStore:
			if !memOK || !t.hier.CanStoreFast() {
				return t.jitNeedSlow(sg.pc, &ex)
			}
			addr := t.regs[sg.ra] + sg.imm
			t.mem.Store(addr, t.regs[sg.rb])
			t.hier.StoreFast(addr, t.Now())
			t.issueUnits += units
			ex.N++
			ex.Weight += sg.w
			if ex.Weight >= weightBudget || t.issueUnits >= unitsCap || sg.idx+1 == cb.n {
				t.pc = sg.pc + isa.WordSize
				t.committed += uint64(ex.N)
				return ex
			}
			si++

		case segPrefetch:
			if !memOK {
				return t.jitNeedSlow(sg.pc, &ex)
			}
			t.hier.Prefetch(t.regs[sg.ra]+sg.imm, t.Now())
			t.issueUnits += units
			ex.N++
			ex.Weight += sg.w
			if ex.Weight >= weightBudget || t.issueUnits >= unitsCap || sg.idx+1 == cb.n {
				t.pc = sg.pc + isa.WordSize
				t.committed += uint64(ex.N)
				return ex
			}
			si++

		case segBranch:
			if hookBranch != nil && t.issueUnits+units >= brCap {
				return t.jitNeedSlow(sg.pc, &ex)
			}
			taken := sg.cond(t)
			nextPC := sg.pc + isa.WordSize
			if taken {
				nextPC = sg.target
			}
			if !t.bp.Update(sg.pc, taken) {
				t.stallCycles += t.cfg.MispredictPenalty
				// stallCycles moved: the cached unit caps are stale.
				unitsCap, brCap = t.sbCaps(horizon, hookBranch != nil)
			}
			t.issueUnits += units
			ex.N++
			ex.Weight += sg.w
			stop := false
			if hookBranch != nil {
				stop = hookBranch(sg.pc, &sg.in, taken, t.Now())
			}
			if taken && sg.isLoop && !stop &&
				ex.Weight < weightBudget && t.issueUnits < unitsCap {
				// Fold the back-edge: restart the chain at its entry.
				if hookLoop != nil {
					hookLoop(t.Now())
				}
				si = 0
				continue
			}
			t.pc = nextPC
			t.committed += uint64(ex.N)
			return ex
		}
	}
}

// jitNeedSlow finalizes a NeedSlow stop before the instruction at pc.
func (t *Thread) jitNeedSlow(pc uint64, ex *SBExec) SBExec {
	ex.NeedSlow = true
	t.pc = pc
	t.committed += uint64(ex.N)
	return *ex
}
