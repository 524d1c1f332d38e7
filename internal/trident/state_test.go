package trident

import (
	"errors"
	"testing"

	"tridentsp/internal/checkpoint"
	"tridentsp/internal/isa"
	"tridentsp/internal/trace"
)

// TestCodeCacheCheckpointRejectsMisfitPlacement: execution indexes a
// placement's trace body by an address's offset into the placement, so a
// restored placement whose bounds do not match its body, or that lies
// outside the cache, is refused as corrupt instead of indexing past the
// body later.
func TestCodeCacheCheckpointRejectsMisfitPlacement(t *testing.T) {
	for _, tc := range []struct {
		name string
		bend func(pl *Placement)
	}{
		{"as placed", func(pl *Placement) {}},
		{"end past body", func(pl *Placement) { pl.End += isa.WordSize }},
		{"outside cache", func(pl *Placement) { pl.Start, pl.End = pl.Start+1<<20, pl.End+1<<20 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cc := NewCodeCache(0x10000000)
			tr := &trace.Trace{StartPC: 0x1000, Insts: []trace.Inst{
				{Inst: isa.Inst{Op: isa.ADDI, Rd: 1, Ra: 1, Imm: 8}, Kind: trace.Normal, OrigPC: 0x1000},
				{Inst: isa.Inst{Op: isa.BR, Rd: isa.ZeroReg}, Kind: trace.ExitJump, ExitTarget: 0x1000},
			}}
			if _, err := cc.Place(tr); err != nil {
				t.Fatal(err)
			}
			tc.bend(&cc.placements[0])
			e := checkpoint.NewSaver()
			cc.Checkpoint(e)
			d := checkpoint.NewLoader(e.Bytes())
			NewCodeCache(0x10000000).Checkpoint(d)
			err := d.Finish()
			if tc.name == "as placed" {
				if err != nil {
					t.Fatalf("valid code cache refused: %v", err)
				}
				return
			}
			if !errors.Is(err, checkpoint.ErrCorrupt) {
				t.Fatalf("restore = %v, want ErrCorrupt", err)
			}
		})
	}
}
