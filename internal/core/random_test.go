package core

import (
	"math/rand"
	"testing"

	"tridentsp/internal/isa"
	"tridentsp/internal/program"
)

// randomProgram generates a structured random program: an outer repeat
// around a few inner loops whose bodies mix ALU ops, loads, stores, and
// data-dependent branches over a bounded data region. Programs always
// terminate (loop counters are fixed) and never touch the optimizer's
// scratch register, so any architectural divergence between configurations
// is a transparency bug in the dynamic optimizer.
func randomProgram(seed int64) *program.Program {
	r := rand.New(rand.NewSource(seed))
	b := program.NewBuilder("rand", 0x1000, 0x1000000)
	const dataBytes = 1 << 20
	data := b.Alloc(dataBytes)
	mask := int64(dataBytes - 8)

	// General registers the generator may use (avoiding loop counters
	// r4/r6, the base r1, zero, and scratch r30).
	gp := []isa.Reg{2, 3, 5, 7, 8, 9, 10, 11, 12, 13}
	reg := func() isa.Reg { return gp[r.Intn(len(gp))] }

	b.Ldi(6, uint64(2+r.Intn(3))) // outer repeats
	b.Label("outer")

	loops := 1 + r.Intn(3)
	for l := 0; l < loops; l++ {
		loop := "loop" + string(rune('A'+l))
		b.Ldi(1, data+uint64(r.Intn(1024))*8)
		b.Ldi(4, uint64(64+r.Intn(2048)))
		b.Label(loop)
		body := 3 + r.Intn(12)
		for i := 0; i < body; i++ {
			switch r.Intn(7) {
			case 0:
				b.Ld(reg(), 1, int64(r.Intn(16))*8)
			case 1:
				b.St(reg(), 1, int64(r.Intn(16))*8)
			case 2:
				b.Op(isa.ADD, reg(), reg(), reg())
			case 3:
				b.OpI(isa.XORI, reg(), reg(), int64(r.Intn(1<<16)))
			case 4:
				b.OpI(isa.SLLI, reg(), reg(), int64(r.Intn(8)))
			case 5:
				// A short data-dependent hammock.
				skip := loop + "s" + string(rune('0'+i))
				cond := reg()
				b.OpI(isa.ANDI, cond, cond, 3)
				b.CondBr(isa.BNE, cond, skip)
				b.OpI(isa.ADDI, reg(), reg(), 1)
				b.Label(skip)
			default:
				b.Op(isa.FMUL, reg(), reg(), reg())
			}
		}
		// Advance the base with a random (but loop-constant) stride,
		// staying inside the data region.
		b.OpI(isa.ADDI, 1, 1, int64(8*(1+r.Intn(16))))
		b.OpI(isa.ANDI, 1, 1, mask)
		b.Ldi(2, data)
		b.Op(isa.OR, 1, 1, 2)
		b.OpI(isa.SUBI, 4, 4, 1)
		b.CondBr(isa.BNE, 4, loop)
	}

	b.OpI(isa.SUBI, 6, 6, 1)
	b.CondBr(isa.BNE, 6, "outer")
	b.Halt()

	p := b.MustBuild()
	for i := 0; i < 4096; i++ {
		p.Data.Store(data+uint64(i)*8, r.Uint64())
	}
	return p
}

// TestRandomProgramTransparency is the repo's strongest property test:
// across randomly generated programs, the fully optimizing configuration
// (Trident, trace optimization, self-repairing prefetching, back-out and
// phase handling enabled) must produce bit-identical architectural results
// to the plain machine.
func TestRandomProgramTransparency(t *testing.T) {
	seeds := []int64{1, 2, 3, 5, 8, 13, 21, 34}
	if testing.Short() {
		seeds = seeds[:3]
	}
	var tracesFormed uint64
	for _, seed := range seeds {
		seed := seed
		t.Run("", func(t *testing.T) {
			ref := NewSystem(BaselineConfig(HWNone), randomProgram(seed))
			ref.Run(1 << 62)
			if !ref.Thread().Halted() {
				t.Fatalf("seed %d: reference did not halt", seed)
			}

			cfg := DefaultConfig()
			cfg.Backout = true
			cfg.PhaseClearMature = true
			opt := NewSystem(cfg, randomProgram(seed))
			optRes := opt.Run(1 << 62)
			if !opt.Thread().Halted() {
				t.Fatalf("seed %d: optimized run did not halt", seed)
			}
			tracesFormed += optRes.TracesFormed

			for reg := isa.Reg(0); reg < isa.NumRegs; reg++ {
				if reg == 30 { // optimizer scratch register
					continue
				}
				if ref.Thread().Reg(reg) != opt.Thread().Reg(reg) {
					t.Errorf("seed %d: r%d differs: %#x vs %#x",
						seed, reg, ref.Thread().Reg(reg), opt.Thread().Reg(reg))
				}
			}
			a, b := ref.mem.Snapshot(), opt.mem.Snapshot()
			if len(a) != len(b) {
				t.Fatalf("seed %d: memory footprints differ: %d vs %d", seed, len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("seed %d: memory differs at %#x: %#x vs %#x",
						seed, a[i].Addr, a[i].Val, b[i].Val)
				}
			}
		})
	}
	// The property is only meaningful if the optimizer actually engaged.
	if tracesFormed == 0 {
		t.Fatal("no random program formed a trace: the property test is vacuous")
	}
}

// TestRandomProgramInstructionAccounting checks the §4.1 invariant on the
// same random programs: original-instruction counts are identical with and
// without the optimizer.
func TestRandomProgramInstructionAccounting(t *testing.T) {
	for _, seed := range []int64{4, 9, 16} {
		ref := NewSystem(BaselineConfig(HWNone), randomProgram(seed))
		refRes := ref.Run(1 << 62)
		cfg := DefaultConfig()
		cfg.HW = HWNone
		opt := NewSystem(cfg, randomProgram(seed))
		optRes := opt.Run(1 << 62)
		if refRes.OrigInstrs != optRes.OrigInstrs {
			t.Errorf("seed %d: orig instrs %d vs %d", seed, refRes.OrigInstrs, optRes.OrigInstrs)
		}
	}
}
