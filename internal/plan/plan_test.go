package plan

import (
	"testing"

	"repro/internal/isa"
)

// testProgram covers every decoding special case: immediates needing sign
// extension, LDC pool resolution, shift masking, branch targets, the
// probabilistic group forms, and memory offsets.
func testProgram() *isa.Program {
	return &isa.Program{
		Name:   "plan-test",
		Consts: []uint64{0xdeadbeefcafef00d},
		Code: []isa.Instr{
			0:  {Op: isa.MOVI, Rd: 1, Imm: -5},
			1:  {Op: isa.LDC, Rd: 2, Imm: 0},
			2:  {Op: isa.SHLI, Rd: 3, Ra: 1, Imm: 70}, // premasked to 6
			3:  {Op: isa.CMP, Ra: 1, Rb: 2},
			4:  {Op: isa.JLE, Imm: 3}, // -> 7
			5:  {Op: isa.LD, Rd: 4, Ra: 1, Imm: -16},
			6:  {Op: isa.ST, Ra: 1, Rb: 4, Imm: 8},
			7:  {Op: isa.PROBCMP, Ra: 5, Rb: 6, Imm: int32(isa.CmpFloat | isa.CmpLT)},
			8:  {Op: isa.PROBJMP, Ra: 7, Imm: isa.NoTarget},
			9:  {Op: isa.PROBJMP, Ra: 0, Imm: -2}, // -> 7
			10: {Op: isa.CALL, Imm: 2},            // -> 12
			11: {Op: isa.HALT},
			12: {Op: isa.RET},
		},
		MemSize: 64,
	}
}

func TestDecode(t *testing.T) {
	prog := testProgram()
	p, err := For(prog)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Code) != len(prog.Code) {
		t.Fatalf("plan has %d instructions, program %d", len(p.Code), len(prog.Code))
	}

	check := func(pc int, field string, got, want any) {
		t.Helper()
		if got != want {
			t.Errorf("pc %d (%s): %s = %v, want %v", pc, prog.Code[pc], field, got, want)
		}
	}

	check(0, "H", p.Code[0].H, HLoadImm)
	check(0, "Val", p.Code[0].Val, uint64(0xfffffffffffffffb)) // sign-extended -5
	check(1, "H", p.Code[1].H, HLoadImm)
	check(1, "Val", p.Code[1].Val, prog.Consts[0]) // resolved constant
	check(2, "Val", p.Code[2].Val, uint64(6))      // 70 & 63
	check(4, "H", p.Code[4].H, HJcc)
	check(4, "Target", p.Code[4].Target, int32(7))
	// JLE truth table: taken for flags LT(1), EQ(2), LT|EQ(3); not for 0.
	check(4, "Val", p.Code[4].Val, uint64(0b1110))
	check(5, "Val(load offset)", int64(p.Code[5].Val), int64(-16))
	check(7, "Kind", p.Code[7].Kind, isa.CmpFloat|isa.CmpLT)
	check(8, "H", p.Code[8].H, HProbJmpMid)
	check(9, "H", p.Code[9].H, HProbJmp)
	check(9, "Target", p.Code[9].Target, int32(7))
	check(10, "Target", p.Code[10].Target, int32(12))

	// Flags must agree with the isa predicates.
	for pc, ins := range prog.Code {
		d := p.Code[pc]
		check(pc, "FBranch", d.Flags&FBranch != 0, ins.Op.IsBranch())
		check(pc, "FCond", d.Flags&FCond != 0, ins.Op.IsCondBranch())
		check(pc, "FLoad", d.Flags&FLoad != 0, ins.Op.IsLoad())
		check(pc, "FStore", d.Flags&FStore != 0, ins.Op.IsStore())
		_, hasTarget := ins.Target(pc)
		check(pc, "FHasTarget", d.Flags&FHasTarget != 0, hasTarget)

		// Register dataflow sets must be SrcRegs/DstRegs exactly, padded
		// with SrcNone and DstSink.
		var buf [4]isa.Reg
		src := [3]uint8{SrcNone, SrcNone, SrcNone}
		for i, r := range ins.SrcRegs(buf[:0]) {
			src[i] = uint8(r)
		}
		check(pc, "Src", d.Src, src)
		dst := [2]uint8{DstSink, DstSink}
		for i, r := range ins.DstRegs(buf[:0]) {
			dst[i] = uint8(r)
		}
		check(pc, "Dst", d.Dst, dst)
	}

	// FUs holds exactly the instructions' classes: this program has
	// integer, memory and branch instructions and no multiply, divide,
	// floating-point or RNG one.
	for c := FUClass(0); c < NumFUClasses; c++ {
		want := c == FUALU || c == FUMem || c == FUBranch
		if p.FUs.Has(c) != want {
			t.Errorf("FUs %08b: class %d present = %t, want %t", p.FUs, c, p.FUs.Has(c), want)
		}
	}
}

func TestForCachesPerProgram(t *testing.T) {
	prog := testProgram()
	p1, err := For(prog)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := For(prog)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Error("same program decoded twice")
	}
	other, err := For(testProgram())
	if err != nil {
		t.Fatal(err)
	}
	if other == p1 {
		t.Error("distinct programs share a plan")
	}
}

func TestForValidates(t *testing.T) {
	bad := &isa.Program{Name: "bad", Code: []isa.Instr{{Op: isa.LDC, Rd: 1, Imm: 3}}}
	if _, err := For(bad); err == nil {
		t.Fatal("invalid program decoded without error")
	}
	// The validation error is cached like a plan.
	if _, err := For(bad); err == nil {
		t.Fatal("cached validation error lost")
	}
}

func TestForConcurrent(t *testing.T) {
	prog := testProgram()
	const n = 16
	plans := make([]*Plan, n)
	done := make(chan int, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			p, err := For(prog)
			if err != nil {
				t.Error(err)
			}
			plans[i] = p
			done <- i
		}(i)
	}
	for i := 0; i < n; i++ {
		<-done
	}
	for i := 1; i < n; i++ {
		if plans[i] != plans[0] {
			t.Fatal("concurrent For returned different plans")
		}
	}
}
