package isa

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	// Property: decode(encode(i)) == i for every well-formed instruction.
	f := func(op uint8, rd, ra, rb uint8, imm int32) bool {
		ins := Instr{
			Op:  Op(op % uint8(numOps)),
			Rd:  Reg(rd % NumRegs),
			Ra:  Reg(ra % NumRegs),
			Rb:  Reg(rb % NumRegs),
			Imm: imm,
		}
		return Decode(ins.Encode()) == ins
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeCodeRoundTrip(t *testing.T) {
	code := []Instr{
		{Op: MOVI, Rd: 1, Imm: -42},
		{Op: FADD, Rd: 2, Ra: 1, Rb: 3},
		{Op: PROBCMP, Ra: 5, Rb: 6, Imm: int32(CmpLT | CmpFloat)},
		{Op: PROBJMP, Ra: 7, Imm: 4},
		{Op: HALT},
	}
	for i, ins := range code {
		if got := Decode(ins.Encode()); got != ins {
			t.Errorf("instr %d: %v != %v", i, got, ins)
		}
	}
}

func TestLegacyEncoding(t *testing.T) {
	// A probabilistic compare encoded in legacy form must decode to a
	// plain compare with Decode and back to PROBCMP with DecodeLegacy —
	// the backward compatibility property of §V-A2.
	probCmp := Instr{Op: PROBCMP, Ra: 3, Rb: 4, Imm: int32(CmpGT | CmpFloat)}
	w, err := EncodeLegacy(probCmp)
	if err != nil {
		t.Fatal(err)
	}
	plain := Decode(w)
	if plain.Op != FCMP || plain.Ra != 3 || plain.Rb != 4 {
		t.Errorf("legacy word does not decode to a plain FCMP: %v", plain)
	}
	back := DecodeLegacy(w)
	if back != probCmp {
		t.Errorf("DecodeLegacy: got %v want %v", back, probCmp)
	}

	probJmp := Instr{Op: PROBJMP, Ra: 9, Imm: -12}
	w, err = EncodeLegacy(probJmp)
	if err != nil {
		t.Fatal(err)
	}
	if got := Decode(w); got.Op != JNE || got.Imm != -12 {
		t.Errorf("legacy PROBJMP does not decode to a plain JNE: %v", got)
	}
	if back := DecodeLegacy(w); back != probJmp {
		t.Errorf("DecodeLegacy: got %v want %v", back, probJmp)
	}

	// Integer compare path.
	intCmp := Instr{Op: PROBCMP, Ra: 1, Rb: 2, Imm: int32(CmpLE)}
	w, err = EncodeLegacy(intCmp)
	if err != nil {
		t.Fatal(err)
	}
	if got := Decode(w); got.Op != CMP {
		t.Errorf("integer legacy compare decodes to %v", got.Op)
	}
	if back := DecodeLegacy(w); back != intCmp {
		t.Errorf("DecodeLegacy: got %v want %v", back, intCmp)
	}

	// Non-probabilistic instructions pass through both paths unchanged.
	add := Instr{Op: ADD, Rd: 1, Ra: 2, Rb: 3}
	w, err = EncodeLegacy(add)
	if err != nil {
		t.Fatal(err)
	}
	if Decode(w) != add || DecodeLegacy(w) != add {
		t.Error("legacy encoding altered a regular instruction")
	}

	if _, err := EncodeLegacy(Instr{Op: PROBCMP, Imm: 99}); err == nil {
		t.Error("expected error for invalid comparison kind")
	}
}

func TestEvalCmp(t *testing.T) {
	cases := []struct {
		kind CmpKind
		a, b int64
		want bool
	}{
		{CmpEQ, 5, 5, true},
		{CmpEQ, 5, 6, false},
		{CmpNE, 5, 6, true},
		{CmpLT, -1, 0, true},
		{CmpLT, 0, -1, false},
		{CmpLE, 3, 3, true},
		{CmpGT, 4, 3, true},
		{CmpGE, 3, 4, false},
	}
	for _, c := range cases {
		if got := EvalCmpInt(c.kind, c.a, c.b); got != c.want {
			t.Errorf("EvalCmpInt(%v, %d, %d) = %v", c.kind, c.a, c.b, got)
		}
	}

	if !EvalCmpFloat(CmpLT, 1.5, 2.5) || EvalCmpFloat(CmpLT, 2.5, 1.5) {
		t.Error("float compare broken")
	}
	nan := math.NaN()
	if EvalCmpFloat(CmpLT, nan, 1) || EvalCmpFloat(CmpEQ, nan, nan) {
		t.Error("NaN must compare unordered")
	}
	if !EvalCmpFloat(CmpNE, nan, nan) {
		t.Error("NaN != NaN must hold")
	}

	// EvalCmp dispatches on the float bit.
	a, b := math.Float64bits(1.0), math.Float64bits(2.0)
	if !EvalCmp(CmpLT|CmpFloat, a, b) {
		t.Error("EvalCmp float dispatch broken")
	}
	// Raw-bit integer comparison of the same floats gives a different
	// question entirely; just check it doesn't panic and is consistent.
	_ = EvalCmp(CmpLT, a, b)
}

func TestCmpKind(t *testing.T) {
	k := CmpGE | CmpFloat
	if k.Base() != CmpGE || !k.IsFloat() {
		t.Error("kind decomposition broken")
	}
	if k.String() != "fge" {
		t.Errorf("String: %q", k.String())
	}
	if !k.Valid() || CmpKind(0x77).Valid() {
		t.Error("validity check broken")
	}
	for _, name := range []string{"eq", "ne", "lt", "le", "gt", "ge", "feq", "flt", "fge"} {
		k, ok := CmpKindByName(name)
		if !ok || k.String() != name {
			t.Errorf("CmpKindByName(%q) round trip failed (%v, %v)", name, k, ok)
		}
	}
	if _, ok := CmpKindByName("zz"); ok {
		t.Error("bad kind accepted")
	}
}

func TestSrcDstRegs(t *testing.T) {
	cases := []struct {
		ins  Instr
		srcs []Reg
		dsts []Reg
	}{
		{Instr{Op: ADD, Rd: 1, Ra: 2, Rb: 3}, []Reg{2, 3}, []Reg{1}},
		{Instr{Op: ADD, Rd: 0, Ra: 2, Rb: 3}, []Reg{2, 3}, nil}, // R0 writes discarded
		{Instr{Op: MOVI, Rd: 4, Imm: 7}, nil, []Reg{4}},
		{Instr{Op: CMP, Ra: 1, Rb: 2}, []Reg{1, 2}, []Reg{FlagsReg}},
		{Instr{Op: JLT, Imm: -3}, []Reg{FlagsReg}, nil},
		{Instr{Op: CALL, Imm: 5}, nil, []Reg{LR}},
		{Instr{Op: RET}, []Reg{LR}, nil},
		{Instr{Op: PROBCMP, Ra: 5, Rb: 6}, []Reg{5, 6}, []Reg{5, FlagsReg}},
		{Instr{Op: PROBJMP, Ra: 7, Imm: 2}, []Reg{7, FlagsReg}, []Reg{7}},
		{Instr{Op: PROBJMP, Ra: 0, Imm: 2}, []Reg{FlagsReg}, nil},
		{Instr{Op: ST, Ra: 1, Rb: 2, Imm: 8}, []Reg{1, 2}, nil},
	}
	equal := func(a, b []Reg) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	for _, c := range cases {
		if got := c.ins.SrcRegs(nil); !equal(got, c.srcs) {
			t.Errorf("%v: SrcRegs = %v want %v", c.ins, got, c.srcs)
		}
		if got := c.ins.DstRegs(nil); !equal(got, c.dsts) {
			t.Errorf("%v: DstRegs = %v want %v", c.ins, got, c.dsts)
		}
	}
}

func TestTarget(t *testing.T) {
	jmp := Instr{Op: JMP, Imm: -4}
	if tgt, ok := jmp.Target(10); !ok || tgt != 6 {
		t.Errorf("Target: %d %v", tgt, ok)
	}
	ret := Instr{Op: RET}
	if _, ok := ret.Target(10); ok {
		t.Error("RET must have no static target")
	}
	mid := Instr{Op: PROBJMP, Ra: 1, Imm: NoTarget}
	if _, ok := mid.Target(10); ok {
		t.Error("intermediate PROB_JMP must have no target")
	}
	add := Instr{Op: ADD}
	if _, ok := add.Target(10); ok {
		t.Error("non-branch has no target")
	}
}

func validProgram() *Program {
	return &Program{
		Name: "test",
		Code: []Instr{
			{Op: MOVI, Rd: 1, Imm: 3},
			{Op: PROBCMP, Ra: 1, Rb: 2, Imm: int32(CmpLT)},
			{Op: PROBJMP, Ra: 3, Imm: NoTarget},
			{Op: PROBJMP, Ra: 0, Imm: 2},
			{Op: ADDI, Rd: 4, Ra: 4, Imm: 1},
			{Op: HALT},
		},
		MemSize: 64,
	}
}

func TestProgramValidate(t *testing.T) {
	if err := validProgram().Validate(); err != nil {
		t.Fatalf("valid program rejected: %v", err)
	}

	bad := validProgram()
	bad.Code[3].Imm = 100 // branch target out of range
	if err := bad.Validate(); err == nil {
		t.Error("out-of-range target accepted")
	}

	bad = validProgram()
	bad.Code = bad.Code[:2] // unterminated prob group
	bad.Code = append(bad.Code, Instr{Op: HALT})
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "probabilistic group") {
		t.Errorf("unterminated group accepted: %v", err)
	}

	bad = validProgram()
	bad.Code[2] = Instr{Op: ADD} // non-PROBJMP inside group
	if err := bad.Validate(); err == nil {
		t.Error("alien instruction inside prob group accepted")
	}

	bad = validProgram()
	bad.Code[0] = Instr{Op: PROBJMP, Imm: 2} // jump without compare
	if err := bad.Validate(); err == nil {
		t.Error("PROB_JMP without PROB_CMP accepted")
	}

	bad = validProgram()
	bad.DataInit = map[int64]uint64{1000: 1}
	if err := bad.Validate(); err == nil {
		t.Error("data init outside memory accepted")
	}

	empty := &Program{Name: "empty"}
	if err := empty.Validate(); err == nil {
		t.Error("empty program accepted")
	}
}

func TestProbBranchPCsAndCounts(t *testing.T) {
	p := validProgram()
	pcs := p.ProbBranchPCs()
	if len(pcs) != 1 || pcs[0] != 3 {
		t.Errorf("ProbBranchPCs: %v", pcs)
	}
	if n := p.StaticBranchCount(); n != 2 { // intermediate + terminal PROBJMP
		t.Errorf("StaticBranchCount: %d", n)
	}
	if n := p.StaticCondBranchCount(); n != 1 {
		t.Errorf("StaticCondBranchCount: %d", n)
	}
}

func TestDisassembleAndClone(t *testing.T) {
	p := validProgram()
	p.Labels = map[string]int{"start": 0}
	text := p.Disassemble()
	if !strings.Contains(text, "start:") || !strings.Contains(text, "prob_cmp") {
		t.Errorf("disassembly missing content:\n%s", text)
	}
	q := p.Clone()
	q.Code[0].Imm = 99
	q.Labels["start"] = 5
	if p.Code[0].Imm == 99 || p.Labels["start"] == 5 {
		t.Error("Clone is shallow")
	}
}

func TestOpPredicates(t *testing.T) {
	if !JLT.IsCondBranch() || !JMP.IsBranch() || JMP.IsCondBranch() {
		t.Error("branch predicates broken")
	}
	if !LD.IsLoad() || !ST.IsStore() || LD.IsStore() {
		t.Error("memory predicates broken")
	}
	if !CMP.SetsFlags() || !JEQ.ReadsFlags() || ADD.SetsFlags() {
		t.Error("flag predicates broken")
	}
	if !PROBCMP.IsProb() || !PROBJMP.IsProb() || CMP.IsProb() {
		t.Error("prob predicates broken")
	}
	op, ok := OpByName("fadd")
	if !ok || op != FADD {
		t.Error("OpByName broken")
	}
	if _, ok := OpByName("nosuch"); ok {
		t.Error("OpByName accepted garbage")
	}
}
