package asm

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/isa"
)

// Format renders a program as assemblable source text (the inverse of
// Assemble up to label naming).
func Format(p *isa.Program) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "; program %s\n", p.Name)
	fmt.Fprintf(&sb, ".mem %d\n", p.MemSize)
	addrs := make([]int64, 0, len(p.DataInit))
	for a := range p.DataInit {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	for _, a := range addrs {
		fmt.Fprintf(&sb, ".word %d %d\n", a, int64(p.DataInit[a]))
	}

	// Generate labels for every branch target.
	labels := map[int]string{}
	for pc, ins := range p.Code {
		if t, ok := ins.Target(pc); ok {
			if _, have := labels[t]; !have {
				labels[t] = fmt.Sprintf("L%d", t)
			}
		}
	}

	for pc, ins := range p.Code {
		if l, ok := labels[pc]; ok {
			fmt.Fprintf(&sb, "%s:\n", l)
		}
		sb.WriteString("    ")
		switch {
		case ins.Op == isa.LDC:
			// Emit the pool value as a raw-bits literal so the formatted
			// source is self-contained.
			fmt.Fprintf(&sb, "ldc r%d, =%#x\n", ins.Rd, p.Consts[ins.Imm])
		default:
			if t, ok := ins.Target(pc); ok {
				// Re-render with the label instead of the numeric offset.
				s := ins.String()
				cut := strings.LastIndexByte(s, ' ')
				fmt.Fprintf(&sb, "%s %s\n", s[:cut], labels[t])
				continue
			}
			sb.WriteString(ins.String())
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}
