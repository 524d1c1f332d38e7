package isa

import (
	"errors"
	"testing"

	"tridentsp/internal/checkpoint"
)

// TestInstCheckpointRejectsWideRegister: the executors index the register
// file with an instruction's register fields unchecked, so a restored
// instruction naming register NumRegs or above is refused as corrupt.
func TestInstCheckpointRejectsWideRegister(t *testing.T) {
	for _, tc := range []struct {
		in Inst
		ok bool
	}{
		{Inst{Op: ADD, Rd: NumRegs - 1, Ra: 1, Rb: 2}, true},
		{Inst{Op: ADD, Rd: NumRegs, Ra: 1, Rb: 2}, false},
		{Inst{Op: ADD, Rd: 3, Ra: 0x80, Rb: 2}, false},
		{Inst{Op: ADD, Rd: 3, Ra: 1, Rb: 0xff}, false},
	} {
		e := checkpoint.NewSaver()
		tc.in.Checkpoint(e)
		var got Inst
		d := checkpoint.NewLoader(e.Bytes())
		got.Checkpoint(d)
		err := d.Finish()
		if tc.ok && (err != nil || got != tc.in) {
			t.Errorf("%+v: restored %+v, %v", tc.in, got, err)
		}
		if !tc.ok && !errors.Is(err, checkpoint.ErrCorrupt) {
			t.Errorf("%+v: restore = %v, want ErrCorrupt", tc.in, err)
		}
	}
}
