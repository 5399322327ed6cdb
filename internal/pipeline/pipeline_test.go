package pipeline

import (
	"testing"

	"repro/internal/branch"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/plan"
	"repro/internal/progb"
	"repro/internal/rng"
)

// timeProgram runs a built program through the emulator with the pipeline
// attached and returns the metrics.
func timeProgram(t *testing.T, cfg Config, pred branch.Predictor, build func(b *progb.Builder)) Metrics {
	t.Helper()
	b := progb.New("t", false)
	build(b)
	prog, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	cpu, err := emu.New(prog, rng.New(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := New(cfg, prog, pred)
	if err != nil {
		t.Fatal(err)
	}
	cpu.SetTraceSink(pipe)
	if err := cpu.Run(2_000_000); err != nil {
		t.Fatal(err)
	}
	return pipe.Metrics()
}

func TestConfigValidation(t *testing.T) {
	if err := FourWide().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := EightWide().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := FourWide()
	bad.Width = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero width accepted")
	}
	bad = FourWide()
	bad.ROBSize = 2
	if err := bad.Validate(); err == nil {
		t.Error("ROB smaller than width accepted")
	}
	bad = FourWide()
	bad.BranchUnits = 0
	if _, err := New(bad, &isa.Program{Code: []isa.Instr{{Op: isa.HALT}}}, branch.AlwaysTaken{}); err == nil {
		t.Error("zero branch units accepted")
	}
}

func TestIndependentALUThroughput(t *testing.T) {
	// 10 independent adds per iteration on a 4-wide core with a taken
	// loop branch: IPC should approach ~3 (fetch-break limited).
	m := timeProgram(t, FourWide(), branch.NewTAGESCL(), func(b *progb.Builder) {
		b.MovInt(2, 20000)
		b.ForN(1, 2, func() {
			for r := isa.Reg(10); r < 20; r++ {
				b.OpI(isa.ADDI, r, r, 1)
			}
		})
		b.Halt()
	})
	if ipc := m.IPC(); ipc < 2.7 || ipc > 4 {
		t.Errorf("independent-ALU IPC = %.2f, expected ~3", ipc)
	}
}

func TestSerialChainLatencyBound(t *testing.T) {
	// A serial FEXP chain is bound by its 20-cycle latency per link.
	m := timeProgram(t, FourWide(), branch.NewTAGESCL(), func(b *progb.Builder) {
		b.MovInt(2, 5000)
		b.MovFloat(10, 1e-9)
		b.ForN(1, 2, func() {
			b.Op2(isa.FEXP, 10, 10)
		})
		b.Halt()
	})
	cyclesPerIter := float64(m.Cycles) / 5000
	if cyclesPerIter < 19 || cyclesPerIter > 23 {
		t.Errorf("serial FEXP chain: %.1f cycles/iter, expected ~20", cyclesPerIter)
	}
}

func TestFUBackfill(t *testing.T) {
	// A long-latency op stalled on its operand must not block younger
	// independent ops from the same unit class: mix a serial FEXP chain
	// with independent FEXPs; throughput should track the unit occupancy
	// (2 cycles/op), not serialize behind the chain.
	m := timeProgram(t, FourWide(), branch.NewTAGESCL(), func(b *progb.Builder) {
		b.MovInt(2, 3000)
		b.MovFloat(10, 1e-9)
		b.MovFloat(11, 0.5)
		b.ForN(1, 2, func() {
			b.Op2(isa.FEXP, 10, 10) // serial chain, 20/iter
			for r := isa.Reg(12); r < 16; r++ {
				b.Op2(isa.FEXP, r, 11) // independent
			}
		})
		b.Halt()
	})
	cyclesPerIter := float64(m.Cycles) / 3000
	// Chain gives 20/iter; the 4 independent FEXPs (occupancy 2) fit in
	// that shadow. Without backfill this would be ~28+.
	if cyclesPerIter > 24 {
		t.Errorf("FU backfill broken: %.1f cycles/iter, expected ~20", cyclesPerIter)
	}
}

func TestMispredictPenaltyCosts(t *testing.T) {
	// A random 50/50 branch against an always-taken one: same code shape,
	// misprediction rate ~50% vs ~0 — the random version must be slower.
	build := func(random bool) func(b *progb.Builder) {
		return func(b *progb.Builder) {
			b.MovInt(2, 20000)
			b.MovFloat(4, 0.5)
			if !random {
				b.MovFloat(4, 2.0) // u < 2 always
			}
			b.ForN(1, 2, func() {
				b.RandU(3)
				skip := b.AutoLabel("skip")
				b.BranchIf(isa.CmpGE|isa.CmpFloat, 3, 4, skip)
				b.AddI(5, 5, 1)
				b.Label(skip)
			})
			b.Halt()
		}
	}
	mRand := timeProgram(t, FourWide(), branch.NewTAGESCL(), build(true))
	mPred := timeProgram(t, FourWide(), branch.NewTAGESCL(), build(false))
	if mRand.MPKI() < 10 {
		t.Fatalf("random branch MPKI %.1f too low for the test to be meaningful", mRand.MPKI())
	}
	if mPred.MPKI() > 1 {
		t.Fatalf("biased branch MPKI %.1f too high", mPred.MPKI())
	}
	if mRand.Cycles <= mPred.Cycles {
		t.Errorf("mispredictions cost nothing: %d vs %d cycles", mRand.Cycles, mPred.Cycles)
	}
}

func TestPerfectBranchesAblation(t *testing.T) {
	build := func(b *progb.Builder) {
		b.MovInt(2, 20000)
		b.MovFloat(4, 0.5)
		b.ForN(1, 2, func() {
			b.RandU(3)
			skip := b.AutoLabel("skip")
			b.BranchIf(isa.CmpGE|isa.CmpFloat, 3, 4, skip)
			b.AddI(5, 5, 1)
			b.Label(skip)
		})
		b.Halt()
	}
	normal := timeProgram(t, FourWide(), branch.NewTAGESCL(), build)
	cfg := FourWide()
	cfg.PerfectBranches = true
	perfect := timeProgram(t, cfg, branch.NewTAGESCL(), build)
	if perfect.Mispredicts != 0 {
		t.Error("perfect mode mispredicted")
	}
	if perfect.Cycles >= normal.Cycles {
		t.Errorf("oracle prediction not faster: %d vs %d", perfect.Cycles, normal.Cycles)
	}
}

func TestWiderCoreIsFaster(t *testing.T) {
	build := func(b *progb.Builder) {
		b.MovInt(2, 10000)
		b.ForN(1, 2, func() {
			for r := isa.Reg(10); r < 26; r++ {
				b.OpI(isa.ADDI, r, r, 1)
			}
		})
		b.Halt()
	}
	m4 := timeProgram(t, FourWide(), branch.NewTAGESCL(), build)
	m8 := timeProgram(t, EightWide(), branch.NewTAGESCL(), build)
	if m8.IPC() <= m4.IPC()*1.2 {
		t.Errorf("8-wide (%.2f) not meaningfully faster than 4-wide (%.2f) on ILP code",
			m8.IPC(), m4.IPC())
	}
}

func TestLoadLatencyThroughCaches(t *testing.T) {
	// A pointer-chase through one cache line vs through 8 MB: the
	// out-of-cache chase must be much slower.
	build := func(stride, span int64) func(b *progb.Builder) {
		return func(b *progb.Builder) {
			words := span / 8
			base := b.AllocWords(words)
			// next[i] = (i+stride) mod span, a closed chain.
			for i := int64(0); i < words; i++ {
				next := (i*8 + stride) % span
				b.InitWord(base+i*8, uint64(base+next))
			}
			b.MovInt(1, base)
			b.MovInt(2, 30000)
			b.ForN(3, 2, func() {
				b.Load(1, 1, 0)
			})
			b.Halt()
		}
	}
	small := timeProgram(t, FourWide(), branch.NewTAGESCL(), build(8, 512))
	big := timeProgram(t, FourWide(), branch.NewTAGESCL(), build(4096+8, 8<<20))
	if big.Cycles < small.Cycles*3 {
		t.Errorf("memory latency invisible: %d vs %d cycles", big.Cycles, small.Cycles)
	}
	if big.L1DMisses < 25000 {
		t.Errorf("expected L1D misses on 8MB chase, got %d", big.L1DMisses)
	}
}

func TestSteeredProbBranchNeverMispredicts(t *testing.T) {
	// Feed the pipeline a synthetic trace with steered prob branches: no
	// predictor access may happen and no mispredict be charged.
	prog := &isa.Program{
		Name: "syn",
		Code: []isa.Instr{
			{Op: isa.PROBCMP, Ra: 1, Rb: 2, Imm: int32(isa.CmpLT)},
			{Op: isa.PROBJMP, Ra: 0, Imm: 2},
			{Op: isa.ADD, Rd: 3, Ra: 3, Rb: 3},
			{Op: isa.HALT},
		},
		MemSize: 8,
	}
	pipe, err := New(FourWide(), prog, branch.NewTAGESCL())
	if err != nil {
		t.Fatal(err)
	}
	var trace []emu.DynInstr
	for i := 0; i < 100; i++ {
		trace = append(trace, emu.DynInstr{PC: 0}, emu.DynInstr{PC: 1, Taken: i%2 == 0, Prob: emu.ProbSteered})
	}
	pipe.ConsumeTrace(trace)
	m := pipe.Metrics()
	if m.Mispredicts != 0 || m.ProbSteered != 100 {
		t.Errorf("steered branches mispredicted: %+v", m)
	}
}

func TestMetricsDerived(t *testing.T) {
	m := Metrics{Instructions: 2000, Cycles: 1000, Mispredicts: 10, MispredictsProb: 6, MispredictsReg: 4}
	if m.IPC() != 2.0 || m.MPKI() != 5.0 || m.MPKIProb() != 3.0 || m.MPKIReg() != 2.0 {
		t.Errorf("derived metrics wrong: %v %v %v %v", m.IPC(), m.MPKI(), m.MPKIProb(), m.MPKIReg())
	}
	var zero Metrics
	if zero.IPC() != 0 || zero.MPKI() != 0 {
		t.Error("zero metrics must not divide by zero")
	}
}

func TestFUSchedSaturation(t *testing.T) {
	var s fuSched
	s.reset([plan.NumFUClasses]uint8{plan.FUALU: 2, plan.FUDiv: 1}, 1<<plan.FUALU|1<<plan.FUDiv)
	// Three ops ready at cycle 10 on a 2-unit class: two issue at 10,
	// the third at 11.
	if got := s.schedule(plan.FUALU, 10, 1, 0); got != 10 {
		t.Errorf("first: %d", got)
	}
	if got := s.schedule(plan.FUALU, 10, 1, 0); got != 10 {
		t.Errorf("second: %d", got)
	}
	if got := s.schedule(plan.FUALU, 10, 1, 0); got != 11 {
		t.Errorf("third: %d", got)
	}
	// Backfill: an op ready at cycle 5 slots in before the busy cycle 10.
	if got := s.schedule(plan.FUALU, 5, 1, 0); got != 5 {
		t.Errorf("backfill: %d", got)
	}
	// Occupancy: a 4-cycle op on a 1-unit class excludes overlaps.
	if got := s.schedule(plan.FUDiv, 20, 4, 0); got != 20 {
		t.Errorf("div first: %d", got)
	}
	if got := s.schedule(plan.FUDiv, 21, 4, 0); got != 24 {
		t.Errorf("div second must wait: %d", got)
	}
}
