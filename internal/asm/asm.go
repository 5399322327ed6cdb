// Package asm is a two-pass text assembler (and formatter) for the PBS
// ISA, used by the pbsasm tool and the customisa example. The syntax is
// one instruction per line:
//
//	; comment
//	.mem 4096            ; data memory size in bytes
//	.word 128 42         ; initial 64-bit data word at byte address 128
//	.float 136 2.5       ; initial float64 data word
//	loop:
//	    movi r1, 1000
//	    ldc  r2, =0.5    ; `=` literals are interned in the constant pool
//	    randu r3
//	    prob_cmp flt, r3, r2
//	    prob_jmp r0, skip
//	    addi r4, r4, 1
//	skip:
//	    addi r1, r1, -1
//	    cmpi r1, 0
//	    jgt loop
//	    out r4
//	    halt
//
// Branch targets are labels (or explicit signed offsets like +3 / -12);
// registers are r0..r63 with the aliases sp (r62) and lr (r63).
package asm

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/isa"
)

// Error is an assembly diagnostic with a line number.
type Error struct {
	Line int
	Msg  string
}

func (e *Error) Error() string { return fmt.Sprintf("asm: line %d: %s", e.Line, e.Msg) }

type fixup struct {
	pc    int
	line  int
	label string
}

// Assemble parses source text into a program.
func Assemble(name, src string) (*isa.Program, error) {
	p := &isa.Program{
		Name:     name,
		MemSize:  8,
		DataInit: map[int64]uint64{},
		Labels:   map[string]int{},
	}
	constIdx := map[uint64]int32{}
	internConst := func(v uint64) int32 {
		if id, ok := constIdx[v]; ok {
			return id
		}
		id := int32(len(p.Consts))
		p.Consts = append(p.Consts, v)
		constIdx[v] = id
		return id
	}
	var fixups []fixup

	errf := func(line int, format string, args ...any) error {
		return &Error{Line: line, Msg: fmt.Sprintf(format, args...)}
	}

	for lineNo, raw := range strings.Split(src, "\n") {
		line := lineNo + 1
		text := raw
		if i := strings.IndexByte(text, ';'); i >= 0 {
			text = text[:i]
		}
		text = strings.TrimSpace(text)
		if text == "" {
			continue
		}

		// Labels (possibly several, possibly with an instruction after).
		for {
			i := strings.IndexByte(text, ':')
			if i < 0 {
				break
			}
			label := strings.TrimSpace(text[:i])
			if label == "" || strings.ContainsAny(label, " \t,") {
				return nil, errf(line, "malformed label %q", text[:i])
			}
			if _, dup := p.Labels[label]; dup {
				return nil, errf(line, "duplicate label %q", label)
			}
			p.Labels[label] = len(p.Code)
			text = strings.TrimSpace(text[i+1:])
		}
		if text == "" {
			continue
		}

		fields := strings.Fields(text)
		mnemonic := strings.ToLower(fields[0])
		rest := strings.TrimSpace(text[len(fields[0]):])
		var operands []string
		if rest != "" {
			for _, op := range strings.Split(rest, ",") {
				operands = append(operands, strings.TrimSpace(op))
			}
		}

		// Directives take space-separated operands.
		if strings.HasPrefix(mnemonic, ".") {
			if err := directive(p, mnemonic, strings.Fields(rest), line); err != nil {
				return nil, err
			}
			continue
		}

		op, ok := isa.OpByName(mnemonic)
		if !ok {
			return nil, errf(line, "unknown mnemonic %q", mnemonic)
		}
		ins, fx, err := parseInstr(op, operands, len(p.Code), line, internConst)
		if err != nil {
			return nil, err
		}
		if fx != nil {
			fixups = append(fixups, *fx)
		}
		p.Code = append(p.Code, ins)
	}

	for _, f := range fixups {
		target, ok := p.Labels[f.label]
		if !ok {
			return nil, errf(f.line, "undefined label %q", f.label)
		}
		p.Code[f.pc].Imm = int32(target - f.pc)
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("asm: %w", err)
	}
	return p, nil
}

func directive(p *isa.Program, name string, operands []string, line int) error {
	switch name {
	case ".mem":
		if len(operands) != 1 {
			return &Error{line, ".mem needs one size operand"}
		}
		n, err := strconv.ParseInt(operands[0], 0, 64)
		if err != nil || n <= 0 {
			return &Error{line, fmt.Sprintf("bad .mem size %q", operands[0])}
		}
		p.MemSize = n
		return nil
	case ".word", ".float":
		if len(operands) != 2 {
			return &Error{line, name + " needs address and value"}
		}
		addr, err := strconv.ParseInt(operands[0], 0, 64)
		if err != nil {
			return &Error{line, fmt.Sprintf("bad address %q", operands[0])}
		}
		var v uint64
		if name == ".word" {
			iv, err := strconv.ParseInt(operands[1], 0, 64)
			if err != nil {
				return &Error{line, fmt.Sprintf("bad word value %q", operands[1])}
			}
			v = uint64(iv)
		} else {
			fv, err := strconv.ParseFloat(operands[1], 64)
			if err != nil {
				return &Error{line, fmt.Sprintf("bad float value %q", operands[1])}
			}
			v = math.Float64bits(fv)
		}
		if addr+8 > p.MemSize {
			p.MemSize = addr + 8
		}
		p.DataInit[addr] = v
		return nil
	}
	return &Error{line, fmt.Sprintf("unknown directive %q", name)}
}

func parseReg(s string, line int) (isa.Reg, error) {
	switch strings.ToLower(s) {
	case "sp":
		return isa.SP, nil
	case "lr":
		return isa.LR, nil
	}
	if len(s) < 2 || (s[0] != 'r' && s[0] != 'R') {
		return 0, &Error{line, fmt.Sprintf("bad register %q", s)}
	}
	n, err := strconv.Atoi(s[1:])
	if err != nil || n < 0 || n >= isa.NumRegs {
		return 0, &Error{line, fmt.Sprintf("bad register %q", s)}
	}
	return isa.Reg(n), nil
}

// parseInstr decodes the operands for one instruction.
func parseInstr(op isa.Op, operands []string, pc, line int, intern func(uint64) int32) (isa.Instr, *fixup, error) {
	ins := isa.Instr{Op: op}
	bad := func(format string, args ...any) (isa.Instr, *fixup, error) {
		return ins, nil, &Error{line, fmt.Sprintf(format, args...)}
	}
	next := func() (string, bool) {
		if len(operands) == 0 {
			return "", false
		}
		s := operands[0]
		operands = operands[1:]
		return s, true
	}

	// PROB_CMP: kind, probReg, cmpReg.
	if op == isa.PROBCMP {
		ks, ok := next()
		if !ok {
			return bad("prob_cmp needs a comparison kind")
		}
		kind, ok := isa.CmpKindByName(strings.ToLower(ks))
		if !ok {
			return bad("bad comparison kind %q", ks)
		}
		ins.Imm = int32(kind)
		ra, ok := next()
		if !ok {
			return bad("prob_cmp needs a probabilistic register")
		}
		r, err := parseReg(ra, line)
		if err != nil {
			return ins, nil, err
		}
		ins.Ra = r
		rb, ok := next()
		if !ok {
			return bad("prob_cmp needs a comparison register")
		}
		r, err = parseReg(rb, line)
		if err != nil {
			return ins, nil, err
		}
		ins.Rb = r
		if len(operands) != 0 {
			return bad("trailing operands")
		}
		return ins, nil, nil
	}

	hasRd, hasRa, hasRb, hasImm := op.Operands()
	if hasRd {
		s, ok := next()
		if !ok {
			return bad("%s needs a destination register", op)
		}
		r, err := parseReg(s, line)
		if err != nil {
			return ins, nil, err
		}
		ins.Rd = r
	}
	if hasRa {
		s, ok := next()
		if !ok {
			return bad("%s needs a source register", op)
		}
		r, err := parseReg(s, line)
		if err != nil {
			return ins, nil, err
		}
		ins.Ra = r
	}
	if hasRb {
		s, ok := next()
		if !ok {
			return bad("%s needs a second source register", op)
		}
		r, err := parseReg(s, line)
		if err != nil {
			return ins, nil, err
		}
		ins.Rb = r
	}
	var fx *fixup
	if hasImm {
		s, ok := next()
		if !ok {
			return bad("%s needs an immediate", op)
		}
		switch {
		case op == isa.LDC && strings.HasPrefix(s, "="):
			lit := s[1:]
			if uv, err := strconv.ParseUint(lit, 0, 64); err == nil {
				ins.Imm = intern(uv)
			} else if iv, err := strconv.ParseInt(lit, 0, 64); err == nil {
				ins.Imm = intern(uint64(iv))
			} else if fv, err := strconv.ParseFloat(lit, 64); err == nil {
				ins.Imm = intern(math.Float64bits(fv))
			} else {
				return bad("bad constant literal %q", s)
			}
		case op.IsBranch():
			if iv, err := strconv.ParseInt(s, 0, 32); err == nil {
				ins.Imm = int32(iv)
			} else {
				fx = &fixup{pc: pc, line: line, label: s}
			}
		default:
			iv, err := strconv.ParseInt(s, 0, 32)
			if err != nil {
				return bad("bad immediate %q", s)
			}
			ins.Imm = int32(iv)
		}
	}
	if len(operands) != 0 {
		return bad("trailing operands")
	}
	return ins, fx, nil
}
