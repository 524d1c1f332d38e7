// Package asm implements a small two-pass assembler for the synthetic ISA:
// a lexer, a statement parser, label resolution with forward references,
// and data directives. Examples and tests use it to write programs as text
// instead of builder calls.
//
// Syntax overview (one statement per line; ';' or '#' starts a comment):
//
//	.org  0x1000          ; set the code base (before any instruction)
//	.data 0x100000        ; set the data allocation cursor
//	.word label, 1, 2, 3  ; allocate and initialize 8-byte words
//	.equ  N, 4096         ; define a numeric symbol
//
//	start:                ; label
//	    ldi   r1, buf     ; load an address or constant
//	    ld    r2, 8(r1)   ; memory operands are off(reg)
//	    addi  r1, r1, 8
//	    subi  r4, r4, 1
//	    bne   r4, start   ; branches take a label or absolute address
//	    prefetch 64(r1)
//	    halt
//
// Registers are r0..r30 plus rz (the hardwired zero register r31).
package asm

import (
	"fmt"
	"strconv"
	"strings"

	"tridentsp/internal/isa"
	"tridentsp/internal/program"
)

// Error is an assembly diagnostic with its source line.
type Error struct {
	Line int
	Msg  string
}

func (e *Error) Error() string { return fmt.Sprintf("asm: line %d: %s", e.Line, e.Msg) }

// Assemble translates source text into a program.
func Assemble(name, src string) (*program.Program, error) {
	a := &assembler{
		name:     name,
		codeBase: 0x1000,
		dataBase: 0x100000,
		symbols:  map[string]uint64{},
		data:     &program.Memory{},
	}
	lines := strings.Split(src, "\n")

	// Pass 1: sizes and label addresses.
	a.dataPtr = a.dataBase
	if err := a.pass(lines, false); err != nil {
		return nil, err
	}
	// Pass 2: emit with all symbols known.
	a.insts = a.insts[:0]
	a.dataPtr = a.dataBase
	if err := a.pass(lines, true); err != nil {
		return nil, err
	}

	code := make([]uint64, len(a.insts))
	for i, in := range a.insts {
		w, err := isa.EncodeChecked(in)
		if err != nil {
			return nil, &Error{Line: a.lineOf[i], Msg: err.Error()}
		}
		code[i] = w
	}
	return &program.Program{
		Base:  a.codeBase,
		Code:  code,
		Entry: a.codeBase,
		Data:  a.data,
		Name:  name,
	}, nil
}

// MustAssemble panics on assembly errors (for static example text).
func MustAssemble(name, src string) *program.Program {
	p, err := Assemble(name, src)
	if err != nil {
		panic(err)
	}
	return p
}

type assembler struct {
	name     string
	codeBase uint64
	dataBase uint64
	dataPtr  uint64
	insts    []isa.Inst
	lineOf   []int
	symbols  map[string]uint64
	data     *program.Memory
	sawCode  bool
}

func (a *assembler) pc() uint64 {
	return a.codeBase + uint64(len(a.insts))*isa.WordSize
}

// pass processes every line; in the final pass unresolved symbols are
// errors, in the first they evaluate to zero.
func (a *assembler) pass(lines []string, final bool) error {
	a.sawCode = false
	for ln, raw := range lines {
		line := stripComment(raw)
		if line == "" {
			continue
		}
		if err := a.statement(line, ln+1, final); err != nil {
			return err
		}
	}
	return nil
}

func stripComment(s string) string {
	if i := strings.IndexAny(s, ";#"); i >= 0 {
		s = s[:i]
	}
	return strings.TrimSpace(s)
}

func (a *assembler) statement(line string, ln int, final bool) error {
	// Labels (possibly followed by a statement on the same line).
	for {
		i := strings.Index(line, ":")
		if i < 0 || strings.ContainsAny(line[:i], " \t(") {
			break
		}
		label := strings.TrimSpace(line[:i])
		if !validIdent(label) {
			return &Error{Line: ln, Msg: fmt.Sprintf("bad label %q", label)}
		}
		if !final {
			if _, dup := a.symbols[label]; dup {
				return &Error{Line: ln, Msg: fmt.Sprintf("duplicate symbol %q", label)}
			}
			a.symbols[label] = a.pc()
		}
		line = strings.TrimSpace(line[i+1:])
		if line == "" {
			return nil
		}
	}

	fields := strings.Fields(line)
	op := strings.ToLower(fields[0])
	rest := strings.TrimSpace(line[len(fields[0]):])

	if strings.HasPrefix(op, ".") {
		return a.directive(op, rest, ln, final)
	}
	return a.instruction(op, rest, ln, final)
}

func (a *assembler) directive(op, rest string, ln int, final bool) error {
	args := splitArgs(rest)
	switch op {
	case ".org":
		if len(args) != 1 {
			return &Error{Line: ln, Msg: ".org needs one value"}
		}
		if a.sawCode {
			return &Error{Line: ln, Msg: ".org after code"}
		}
		v, err := a.value(args[0], ln, final)
		if err != nil {
			return err
		}
		a.codeBase = v &^ 7
	case ".data":
		if len(args) != 1 {
			return &Error{Line: ln, Msg: ".data needs one value"}
		}
		v, err := a.value(args[0], ln, final)
		if err != nil {
			return err
		}
		a.dataPtr = (v + 7) &^ 7
		if a.dataPtr > a.dataBase {
			a.dataBase = a.dataPtr
		}
		a.dataBase = a.dataPtr
	case ".equ":
		if len(args) != 2 {
			return &Error{Line: ln, Msg: ".equ needs name, value"}
		}
		v, err := a.value(args[1], ln, final)
		if err != nil {
			return err
		}
		if !final {
			if _, dup := a.symbols[args[0]]; dup {
				return &Error{Line: ln, Msg: fmt.Sprintf("duplicate symbol %q", args[0])}
			}
			a.symbols[args[0]] = v
		}
	case ".word":
		if len(args) < 1 {
			return &Error{Line: ln, Msg: ".word needs a name"}
		}
		if !final {
			if _, dup := a.symbols[args[0]]; dup {
				return &Error{Line: ln, Msg: fmt.Sprintf("duplicate symbol %q", args[0])}
			}
			a.symbols[args[0]] = a.dataPtr
		}
		addr := a.dataPtr
		n := len(args) - 1
		if n == 0 {
			n = 1
		}
		for i := 0; i < n; i++ {
			if i < len(args)-1 {
				v, err := a.value(args[i+1], ln, final)
				if err != nil {
					return err
				}
				if final && v != 0 {
					a.data.Store(addr+uint64(i)*8, v)
				}
			}
		}
		a.dataPtr += uint64(n) * 8
	case ".space":
		if len(args) != 2 {
			return &Error{Line: ln, Msg: ".space needs name, bytes"}
		}
		if !final {
			if _, dup := a.symbols[args[0]]; dup {
				return &Error{Line: ln, Msg: fmt.Sprintf("duplicate symbol %q", args[0])}
			}
			a.symbols[args[0]] = a.dataPtr
		}
		v, err := a.value(args[1], ln, final)
		if err != nil {
			return err
		}
		a.dataPtr += (v + 7) &^ 7
	default:
		return &Error{Line: ln, Msg: fmt.Sprintf("unknown directive %s", op)}
	}
	return nil
}

// opsByName maps mnemonics to opcodes.
var opsByName = func() map[string]isa.Op {
	m := map[string]isa.Op{}
	for op := isa.Op(0); ; op++ {
		if !op.Valid() {
			break
		}
		m[op.String()] = op
	}
	return m
}()

func (a *assembler) instruction(mnemonic, rest string, ln int, final bool) error {
	op, ok := opsByName[mnemonic]
	if !ok {
		return &Error{Line: ln, Msg: fmt.Sprintf("unknown mnemonic %q", mnemonic)}
	}
	a.sawCode = true
	args := splitArgs(rest)
	in := isa.Inst{Op: op}
	bad := func() error {
		return &Error{Line: ln, Msg: fmt.Sprintf("bad operands for %s: %q", mnemonic, rest)}
	}

	switch op {
	case isa.NOP, isa.HALT:
		if len(args) != 0 {
			return bad()
		}

	case isa.ADD, isa.SUB, isa.MUL, isa.AND, isa.OR, isa.XOR, isa.SLL,
		isa.SRL, isa.CMPLT, isa.CMPEQ, isa.FADD, isa.FMUL, isa.FDIV:
		if len(args) != 3 {
			return bad()
		}
		rd, ok1 := regNamed(args[0])
		ra, ok2 := regNamed(args[1])
		rb, ok3 := regNamed(args[2])
		if !ok1 || !ok2 || !ok3 {
			return bad()
		}
		in.Rd, in.Ra, in.Rb = rd, ra, rb

	case isa.ADDI, isa.SUBI, isa.MULI, isa.ANDI, isa.ORI, isa.XORI,
		isa.SLLI, isa.SRLI, isa.CMPLTI, isa.CMPEQI, isa.LDA, isa.LDIH:
		if len(args) != 3 {
			return bad()
		}
		rd, ok1 := regNamed(args[0])
		ra, ok2 := regNamed(args[1])
		if !ok1 || !ok2 {
			return bad()
		}
		v, err := a.signedValue(args[2], ln, final)
		if err != nil {
			return err
		}
		in.Rd, in.Ra, in.Imm = rd, ra, v

	case isa.MOVE:
		if len(args) != 2 {
			return bad()
		}
		rd, ok1 := regNamed(args[0])
		ra, ok2 := regNamed(args[1])
		if !ok1 || !ok2 {
			return bad()
		}
		in.Rd, in.Ra = rd, ra

	case isa.LDI:
		if len(args) != 2 {
			return bad()
		}
		rd, ok1 := regNamed(args[0])
		if !ok1 {
			return bad()
		}
		v, err := a.signedValue(args[1], ln, final)
		if err != nil {
			return err
		}
		in.Rd, in.Imm = rd, v

	case isa.LD, isa.LDNF:
		if len(args) != 2 {
			return bad()
		}
		rd, ok1 := regNamed(args[0])
		off, ra, ok2 := a.memOperand(args[1], ln, final)
		if !ok1 || !ok2 {
			return bad()
		}
		in.Rd, in.Ra, in.Imm = rd, ra, off

	case isa.ST:
		if len(args) != 2 {
			return bad()
		}
		rb, ok1 := regNamed(args[0])
		off, ra, ok2 := a.memOperand(args[1], ln, final)
		if !ok1 || !ok2 {
			return bad()
		}
		in.Rb, in.Ra, in.Imm = rb, ra, off

	case isa.PREFETCH:
		if len(args) != 1 {
			return bad()
		}
		off, ra, ok := a.memOperand(args[0], ln, final)
		if !ok {
			return bad()
		}
		in.Ra, in.Imm = ra, off

	case isa.BR:
		if len(args) != 1 {
			return bad()
		}
		in.Rd = isa.ZeroReg
		t, err := a.value(args[0], ln, final)
		if err != nil {
			return err
		}
		in.Imm = isa.BranchDisp(a.pc(), t)

	case isa.BEQ, isa.BNE, isa.BLT, isa.BGE:
		if len(args) != 2 {
			return bad()
		}
		ra, ok := regNamed(args[0])
		if !ok {
			return bad()
		}
		t, err := a.value(args[1], ln, final)
		if err != nil {
			return err
		}
		in.Ra = ra
		in.Imm = isa.BranchDisp(a.pc(), t)

	case isa.JMP:
		if len(args) != 1 {
			return bad()
		}
		off, ra, ok := a.memOperand(args[0], ln, final)
		if !ok || off != 0 {
			return bad()
		}
		in.Rd, in.Ra = isa.ZeroReg, ra

	default:
		return bad()
	}

	a.insts = append(a.insts, in)
	if len(a.lineOf) < len(a.insts) {
		a.lineOf = append(a.lineOf, ln)
	}
	return nil
}

// memOperand parses "off(reg)" or "(reg)"; off may be a symbol.
func (a *assembler) memOperand(s string, ln int, final bool) (int64, isa.Reg, bool) {
	open := strings.Index(s, "(")
	if open < 0 || !strings.HasSuffix(s, ")") {
		return 0, 0, false
	}
	r, ok := regNamed(s[open+1 : len(s)-1])
	if !ok {
		return 0, 0, false
	}
	offStr := strings.TrimSpace(s[:open])
	if offStr == "" {
		return 0, r, true
	}
	v, err := a.signedValue(offStr, ln, final)
	if err != nil {
		return 0, 0, false
	}
	return v, r, true
}

// value evaluates a number or symbol.
func (a *assembler) value(s string, ln int, final bool) (uint64, error) {
	s = strings.TrimSpace(s)
	if v, err := strconv.ParseUint(s, 0, 64); err == nil {
		return v, nil
	}
	if v, err := strconv.ParseInt(s, 0, 64); err == nil {
		return uint64(v), nil
	}
	if v, ok := a.symbols[s]; ok {
		return v, nil
	}
	if !final && validIdent(s) {
		return 0, nil // forward reference; resolved in pass 2
	}
	return 0, &Error{Line: ln, Msg: fmt.Sprintf("undefined symbol %q", s)}
}

func (a *assembler) signedValue(s string, ln int, final bool) (int64, error) {
	v, err := a.value(s, ln, final)
	return int64(v), err
}

// regNamed parses r0..r31 and rz.
func regNamed(s string) (isa.Reg, bool) {
	s = strings.TrimSpace(strings.ToLower(s))
	if s == "rz" {
		return isa.ZeroReg, true
	}
	if !strings.HasPrefix(s, "r") {
		return 0, false
	}
	n, err := strconv.Atoi(s[1:])
	if err != nil || n < 0 || n >= isa.NumRegs {
		return 0, false
	}
	return isa.Reg(n), true
}

func splitArgs(s string) []string {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}

func validIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == '.':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}
