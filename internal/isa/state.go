package isa

import "tridentsp/internal/checkpoint"

// Checkpoint serialization for instructions. Field-wise rather than through
// Encode/Decode: trace metadata may hold instructions whose immediates never
// went through the encodable-range check, and a checkpoint must round-trip
// them bit-exactly regardless.

// Checkpoint walks the instruction.
func (in *Inst) Checkpoint(c *checkpoint.Codec) {
	checkpoint.Enum(c, &in.Op)
	CheckpointReg(c, &in.Rd)
	CheckpointReg(c, &in.Ra)
	CheckpointReg(c, &in.Rb)
	c.I64(&in.Imm)
}

// CheckpointReg walks a register field. Loading refuses a register outside
// the architectural file: the executors index the register file with it
// unchecked.
func CheckpointReg(c *checkpoint.Codec, r *Reg) {
	checkpoint.Enum(c, r)
	if c.Loading() && *r >= NumRegs {
		c.Failf("register r%d outside the %d-register file", *r, NumRegs)
	}
}
