package core

import (
	"testing"

	"tridentsp/internal/isa"
	"tridentsp/internal/program"
)

// divWorkload loads a scale factor from memory every iteration and divides
// by it; the scale is a constant power of two, so value specialization can
// turn the long-latency divide into a shift behind a guard.
func divWorkload(scale uint64) *program.Program {
	b := program.NewBuilder("divloop", 0x1000, 0x1000000)
	cell := b.AllocWords(scale)
	// Cache-resident data: nothing for the prefetcher to do, so the
	// invariant-load event is the only optimization in play.
	arr := b.Alloc(64 << 10)
	b.Ldi(6, 1<<40)
	b.Label("outer")
	b.Ldi(1, arr)
	b.Ldi(4, 4096)
	b.Ldi(9, cell)
	b.Label("top")
	b.Ld(2, 9, 0) // the quasi-invariant scale
	b.Ld(3, 1, 0)
	b.Op(isa.FDIV, 5, 3, 2) // expensive divide by the invariant
	b.Op(isa.ADD, 7, 7, 5)
	b.OpI(isa.ADDI, 1, 1, 8)
	b.OpI(isa.ANDI, 1, 1, (64<<10)-1)
	b.Ldi(8, arr)
	b.Op(isa.OR, 1, 1, 8)
	b.OpI(isa.SUBI, 4, 4, 1)
	b.CondBr(isa.BNE, 4, "top")
	b.OpI(isa.SUBI, 6, 6, 1)
	b.CondBr(isa.BNE, 6, "outer")
	b.Halt()
	p := b.MustBuild()
	for i := 0; i < 4096; i++ {
		p.Data.Store(arr+uint64(i)*8, uint64(i)*1234567)
	}
	return p
}

func TestValueSpecializationRemovesDivLatency(t *testing.T) {
	cfg := DefaultConfig()
	cfg.HW = HWNone
	base := NewSystem(cfg, divWorkload(8)).Run(1_500_000)

	cfg.ValueSpecialize = true
	spec := NewSystem(cfg, divWorkload(8)).Run(1_500_000)

	if spec.TracesSpecialized == 0 {
		t.Fatal("no trace was specialized")
	}
	// The divide costs FDivLatency (12 cycles) per iteration; the loop is
	// ~12 instructions (3 cycles issue), so specialization should cut the
	// iteration time substantially.
	sp := Speedup(spec, base)
	if sp < 1.3 {
		t.Fatalf("specialization speedup = %.3f, want > 1.3 (divide folded to shift)", sp)
	}
}

func TestValueSpecializationTransparent(t *testing.T) {
	// Finite variant: both configurations must compute identical sums.
	build := func() *program.Program {
		b := program.NewBuilder("divfin", 0x1000, 0x1000000)
		cell := b.AllocWords(16)
		arr := b.Alloc(64 << 10)
		b.Ldi(6, 30)
		b.Label("outer")
		b.Ldi(1, arr)
		b.Ldi(4, 2048)
		b.Ldi(9, cell)
		b.Label("top")
		b.Ld(2, 9, 0)
		b.Ld(3, 1, 0)
		b.Op(isa.FDIV, 5, 3, 2)
		b.Op(isa.ADD, 7, 7, 5)
		b.OpI(isa.ADDI, 1, 1, 8)
		b.OpI(isa.SUBI, 4, 4, 1)
		b.CondBr(isa.BNE, 4, "top")
		b.OpI(isa.SUBI, 6, 6, 1)
		b.CondBr(isa.BNE, 6, "outer")
		b.Halt()
		p := b.MustBuild()
		for i := 0; i < 2048; i++ {
			p.Data.Store(arr+uint64(i)*8, uint64(i)*977+13)
		}
		return p
	}
	ref := NewSystem(BaselineConfig(HWNone), build())
	ref.Run(1 << 62)
	cfg := DefaultConfig()
	cfg.ValueSpecialize = true
	spec := NewSystem(cfg, build())
	res := spec.Run(1 << 62)
	if !ref.Thread().Halted() || !spec.Thread().Halted() {
		t.Fatal("runs did not halt")
	}
	if ref.Thread().Reg(7) != spec.Thread().Reg(7) {
		t.Fatalf("specialized sum %d != reference %d (specialized %d traces)",
			spec.Thread().Reg(7), ref.Thread().Reg(7), res.TracesSpecialized)
	}
}

func TestValueSpecializationGuardDeoptimizes(t *testing.T) {
	// The scale value flips mid-run: the guard must send execution back to
	// original code with correct results.
	build := func() *program.Program {
		b := program.NewBuilder("divflip", 0x1000, 0x1000000)
		cell := b.AllocWords(8)
		arr := b.Alloc(64 << 10)
		b.Ldi(6, 40)
		b.Ldi(10, 20) // outer iterations until the flip
		b.Label("outer")
		b.Ldi(1, arr)
		b.Ldi(4, 2048)
		b.Ldi(9, cell)
		b.Label("top")
		b.Ld(2, 9, 0)
		b.Ld(3, 1, 0)
		b.Op(isa.FDIV, 5, 3, 2)
		b.Op(isa.ADD, 7, 7, 5)
		b.OpI(isa.ADDI, 1, 1, 8)
		b.OpI(isa.SUBI, 4, 4, 1)
		b.CondBr(isa.BNE, 4, "top")
		// After 20 outer rounds, change the divisor to 4.
		b.OpI(isa.SUBI, 10, 10, 1)
		b.CondBr(isa.BNE, 10, "noflip")
		b.Ldi(11, 4)
		b.St(11, 9, 0)
		b.Label("noflip")
		b.OpI(isa.SUBI, 6, 6, 1)
		b.CondBr(isa.BNE, 6, "outer")
		b.Halt()
		p := b.MustBuild()
		for i := 0; i < 2048; i++ {
			p.Data.Store(arr+uint64(i)*8, uint64(i)*31+7)
		}
		return p
	}
	ref := NewSystem(BaselineConfig(HWNone), build())
	ref.Run(1 << 62)
	cfg := DefaultConfig()
	cfg.ValueSpecialize = true
	spec := NewSystem(cfg, build())
	res := spec.Run(1 << 62)
	if !spec.Thread().Halted() {
		t.Fatal("specialized run did not halt")
	}
	if ref.Thread().Reg(7) != spec.Thread().Reg(7) {
		t.Fatalf("guard failure corrupted results: %d != %d (specialized %d)",
			spec.Thread().Reg(7), ref.Thread().Reg(7), res.TracesSpecialized)
	}
}

func TestValueSpecializationOffByDefault(t *testing.T) {
	cfg := DefaultConfig()
	res := NewSystem(cfg, divWorkload(8)).Run(500_000)
	if res.TracesSpecialized != 0 {
		t.Fatal("specialization ran while disabled")
	}
}
