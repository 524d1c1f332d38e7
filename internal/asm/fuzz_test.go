package asm

import (
	"strings"
	"testing"

	"tridentsp/internal/isa"
)

// FuzzAssemble checks that arbitrary source text never panics the
// assembler and that accepted programs contain only valid instruction
// words.
func FuzzAssemble(f *testing.F) {
	seeds := []string{
		"",
		"nop\nhalt",
		"ldi r1, 5\nadd r2, r1, r1\nhalt",
		".org 0x1000\n.data 0x2000\n.word w, 1, 2\nld r1, 0(r2)",
		"top: subi r4, r4, 1\nbne r4, top",
		".equ N, 10\nldi r1, N",
		"prefetch 64(r9)",
		"st r1, -8(r2)",
		"; comment only",
		"x: y: z: halt",
		".space big, 4096\nldnf r3, 0(r1)",
		"jmp (r5)",
		"ldi r1, 0xffffffffffffffff",
		"add r99, r1, r2",
		".word",
		"br somewhere",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		p, err := Assemble("fuzz", src)
		if err != nil {
			return
		}
		for i, w := range p.Code {
			if !isa.Decode(w).Op.Valid() {
				t.Fatalf("accepted program has invalid instruction %d", i)
			}
		}
	})
}

func TestAssembleLargeProgram(t *testing.T) {
	// A few thousand lines assemble without issue and in order.
	var sb strings.Builder
	sb.WriteString(".org 0x1000\n")
	for i := 0; i < 4000; i++ {
		sb.WriteString("addi r1, r1, 1\n")
	}
	sb.WriteString("halt\n")
	p, err := Assemble("big", sb.String())
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Code) != 4001 {
		t.Fatalf("code len = %d", len(p.Code))
	}
}

func TestAssembleNegativeNumbers(t *testing.T) {
	p, err := Assemble("neg", "ldi r1, -42\naddi r2, r1, -8\nhalt")
	if err != nil {
		t.Fatal(err)
	}
	in := isa.Decode(p.Code[0])
	if in.Imm != -42 {
		t.Fatalf("negative ldi imm = %d", in.Imm)
	}
	in = isa.Decode(p.Code[1])
	if in.Imm != -8 {
		t.Fatalf("negative addi imm = %d", in.Imm)
	}
}

func TestAssembleHexAndDecimal(t *testing.T) {
	p, err := Assemble("num", "ldi r1, 0x10\nldi r2, 16\nldi r3, 0o20\nhalt")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if in := isa.Decode(p.Code[i]); in.Imm != 16 {
			t.Fatalf("inst %d imm = %d, want 16", i, in.Imm)
		}
	}
}

func TestAssembleRZOperand(t *testing.T) {
	p, err := Assemble("rz", "add r1, rz, rz\nbeq rz, end\nhalt\nend: halt")
	if err != nil {
		t.Fatal(err)
	}
	in := isa.Decode(p.Code[0])
	if in.Ra != isa.ZeroReg || in.Rb != isa.ZeroReg {
		t.Fatalf("rz not parsed: %+v", in)
	}
}

func TestAssembleDataDirectiveMovesCursor(t *testing.T) {
	p, err := Assemble("data", `
		.data 0x400000
		.word a, 1
		.data 0x800000
		.word b, 2
		ldi r1, a
		ldi r2, b
		halt
	`)
	if err != nil {
		t.Fatal(err)
	}
	a := isa.Decode(p.Code[0]).Imm
	b := isa.Decode(p.Code[1]).Imm
	if a != 0x400000 || b != 0x800000 {
		t.Fatalf("cursors: a=%#x b=%#x", a, b)
	}
	if p.Data.Load(0x400000) != 1 || p.Data.Load(0x800000) != 2 {
		t.Fatal("data not placed at directed addresses")
	}
}
