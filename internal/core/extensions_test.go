package core

import (
	"testing"

	"tridentsp/internal/isa"
	"tridentsp/internal/program"
)

// phaseWorkload runs a low-miss phase, then switches to a high-miss phase
// over a second array.
func phaseWorkload() *program.Program {
	b := program.NewBuilder("phase", 0x1000, 0x1000000)
	small := b.Alloc(16 << 10)
	big := b.Alloc(16 << 20)
	b.Ldi(6, 1<<40)
	b.Label("outer")
	// Phase A: cache-resident.
	b.Ldi(1, small)
	b.Ldi(4, 60000)
	b.Label("pa")
	b.Ld(2, 1, 0)
	b.OpI(isa.ADDI, 1, 1, 8)
	b.OpI(isa.ANDI, 1, 1, (16<<10)-1)
	b.OpI(isa.ADDI, 1, 1, 0)
	b.Op(isa.ADD, 3, 3, 2)
	b.OpI(isa.SUBI, 4, 4, 1)
	b.CondBr(isa.BNE, 4, "pa")
	// Phase B: streaming misses.
	b.Ldi(1, big)
	b.Ldi(4, 60000)
	b.Label("pb")
	b.Ld(2, 1, 0)
	b.OpI(isa.ADDI, 1, 1, 64)
	b.Op(isa.ADD, 3, 3, 2)
	b.OpI(isa.SUBI, 4, 4, 1)
	b.CondBr(isa.BNE, 4, "pb")
	b.OpI(isa.SUBI, 6, 6, 1)
	b.CondBr(isa.BNE, 6, "outer")
	b.Halt()
	return b.MustBuild()
}

func TestInitFromEstimateConvergesLikeDefault(t *testing.T) {
	// The paper's §3.5.1 claim: starting from the estimate instead of 1
	// makes no difference because repair converges quickly. Both variants
	// must land within a few percent of each other.
	p := strideWorkload(131072, 64, 4)
	cfg := DefaultConfig()
	cfg.HW = HWNone
	d1 := NewSystem(cfg, p).Run(3_000_000)

	p = strideWorkload(131072, 64, 4)
	cfg.InitFromEstimate = true
	est := NewSystem(cfg, p).Run(3_000_000)

	ratio := est.IPC() / d1.IPC()
	if ratio < 0.9 || ratio > 1.1 {
		t.Fatalf("estimate-init IPC ratio %.3f, want ~1.0 (paper: no gain)", ratio)
	}
}
