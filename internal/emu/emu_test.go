package emu

import (
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/progb"
	"repro/internal/rng"
)

// run builds a program with the builder, executes it and returns the CPU.
func run(t *testing.T, pbs bool, build func(b *progb.Builder)) *CPU {
	t.Helper()
	b := progb.New("t", true)
	build(b)
	prog, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	var unit *core.Unit
	if pbs {
		unit, err = core.NewUnit(core.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
	}
	cpu, err := New(prog, rng.New(1), unit)
	if err != nil {
		t.Fatal(err)
	}
	if err := cpu.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	return cpu
}

func TestIntegerALU(t *testing.T) {
	cpu := run(t, false, func(b *progb.Builder) {
		b.MovInt(1, 20)
		b.MovInt(2, 6)
		b.Op3(isa.ADD, 3, 1, 2)  // 26
		b.Op3(isa.SUB, 4, 1, 2)  // 14
		b.Op3(isa.MUL, 5, 1, 2)  // 120
		b.Op3(isa.DIV, 6, 1, 2)  // 3
		b.Op3(isa.REM, 7, 1, 2)  // 2
		b.Op3(isa.AND, 8, 1, 2)  // 4
		b.Op3(isa.OR, 9, 1, 2)   // 22
		b.Op3(isa.XOR, 10, 1, 2) // 18
		b.MovInt(11, -20)
		b.Op2(isa.NEG, 12, 11)    // 20
		b.OpI(isa.SHLI, 13, 2, 3) // 48
		b.OpI(isa.SHRI, 14, 1, 2) // 5
		b.Halt()
	})
	want := map[isa.Reg]int64{3: 26, 4: 14, 5: 120, 6: 3, 7: 2, 8: 4, 9: 22, 10: 18, 12: 20, 13: 48, 14: 5}
	for r, v := range want {
		if got := int64(cpu.Reg(r)); got != v {
			t.Errorf("r%d = %d, want %d", r, got, v)
		}
	}
}

func TestFloatOps(t *testing.T) {
	cpu := run(t, false, func(b *progb.Builder) {
		b.MovFloat(1, 2.25)
		b.MovFloat(2, 4.0)
		b.Op3(isa.FADD, 3, 1, 2)
		b.Op3(isa.FMUL, 4, 1, 2)
		b.Op2(isa.FSQRT, 5, 2)
		b.Op2(isa.FNEG, 6, 1)
		b.Op2(isa.FABS, 7, 6)
		b.MovFloat(8, 1.0)
		b.Op2(isa.FEXP, 9, 8)
		b.Op2(isa.FLN, 10, 9)
		b.Op3(isa.FMIN, 11, 1, 2)
		b.Op3(isa.FMAX, 12, 1, 2)
		b.MovFloat(13, -2.7)
		b.Op2(isa.FFLOOR, 14, 13)
		b.MovInt(15, -3)
		b.Op2(isa.ITOF, 16, 15)
		b.Op2(isa.FTOI, 17, 1)
		b.Halt()
	})
	checks := map[isa.Reg]float64{3: 6.25, 4: 9.0, 5: 2.0, 6: -2.25, 7: 2.25,
		9: math.E, 11: 2.25, 12: 4.0, 14: -3.0, 16: -3.0}
	for r, v := range checks {
		if got := math.Float64frombits(cpu.Reg(r)); math.Abs(got-v) > 1e-12 {
			t.Errorf("r%d = %g, want %g", r, got, v)
		}
	}
	if got := math.Float64frombits(cpu.Reg(10)); math.Abs(got-1) > 1e-12 {
		t.Errorf("ln(e) = %g", got)
	}
	if got := int64(cpu.Reg(17)); got != 2 {
		t.Errorf("ftoi(2.25) = %d", got)
	}
}

func TestMemoryAndOutput(t *testing.T) {
	cpu := run(t, false, func(b *progb.Builder) {
		addr := b.AllocWords(4)
		b.InitWord(addr, 0xdeadbeef)
		b.MovInt(1, addr)
		b.Load(2, 1, 0)
		b.MovInt(3, 77)
		b.Store(1, 8, 3)
		b.Load(4, 1, 8)
		b.MovInt(5, 0x41)
		b.StoreB(1, 16, 5)
		b.LoadB(6, 1, 16)
		b.Out(2)
		b.Out(4)
		b.Halt()
	})
	if cpu.Reg(2) != 0xdeadbeef || cpu.Reg(4) != 77 || cpu.Reg(6) != 0x41 {
		t.Errorf("memory ops: r2=%#x r4=%d r6=%#x", cpu.Reg(2), cpu.Reg(4), cpu.Reg(6))
	}
	out := cpu.Output()
	if len(out) != 2 || out[0] != 0xdeadbeef || out[1] != 77 {
		t.Errorf("output stream: %v", out)
	}
}

func TestControlFlowAndCalls(t *testing.T) {
	cpu := run(t, false, func(b *progb.Builder) {
		b.MovInt(1, 0)
		b.MovInt(2, 10)
		b.ForN(3, 2, func() {
			b.AddI(1, 1, 2) // sum += 2
		})
		b.Jmp("main")
		b.Label("double")
		b.Op3(isa.ADD, 4, 4, 4)
		b.Ret()
		b.Label("main")
		b.MovInt(4, 21)
		b.Call("double")
		b.Halt()
	})
	if got := int64(cpu.Reg(1)); got != 20 {
		t.Errorf("loop sum = %d, want 20", got)
	}
	if got := int64(cpu.Reg(4)); got != 42 {
		t.Errorf("function result = %d, want 42", got)
	}
	st := cpu.Stats()
	if st.Calls != 1 || st.Returns != 1 {
		t.Errorf("call/ret stats: %+v", st)
	}
}

func TestIfElse(t *testing.T) {
	cpu := run(t, false, func(b *progb.Builder) {
		b.MovInt(1, 5)
		b.MovInt(2, 7)
		b.IfElse(isa.CmpLT, 1, 2, func() {
			b.MovInt(3, 111)
		}, func() {
			b.MovInt(3, 222)
		})
		b.IfElse(isa.CmpGT, 1, 2, func() {
			b.MovInt(4, 111)
		}, func() {
			b.MovInt(4, 222)
		})
		b.Halt()
	})
	if cpu.Reg(3) != 111 || cpu.Reg(4) != 222 {
		t.Errorf("IfElse: r3=%d r4=%d", cpu.Reg(3), cpu.Reg(4))
	}
}

func TestFaults(t *testing.T) {
	cases := []struct {
		name  string
		build func(b *progb.Builder)
		want  string
	}{
		{"div-zero", func(b *progb.Builder) {
			b.MovInt(1, 5)
			b.Op3(isa.DIV, 2, 1, 0)
			b.Halt()
		}, "division by zero"},
		{"load-oob", func(b *progb.Builder) {
			b.MovInt(1, 1<<30)
			b.Load(2, 1, 0)
			b.Halt()
		}, "load address"},
		{"store-oob", func(b *progb.Builder) {
			b.MovInt(1, -16)
			b.Store(1, 0, 2)
			b.Halt()
		}, "store address"},
		{"randi-nonpositive", func(b *progb.Builder) {
			b.RandI(2, 0)
			b.Halt()
		}, "non-positive bound"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			b := progb.New("t", false)
			c.build(b)
			prog, err := b.Finish()
			if err != nil {
				t.Fatal(err)
			}
			cpu, err := New(prog, rng.New(1), nil)
			if err != nil {
				t.Fatal(err)
			}
			err = cpu.Run(1000)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("want fault %q, got %v", c.want, err)
			}
		})
	}
}

// probCounter builds the canonical marked loop: count u < 0.25 over n
// draws.
func probCounter(n int64) func(b *progb.Builder) {
	return func(b *progb.Builder) {
		b.MovInt(2, n)
		b.MovFloat(4, 0.25)
		b.ForN(1, 2, func() {
			b.RandU(3)
			skip := b.AutoLabel("skip")
			b.MarkedBranchIf(isa.CmpGE|isa.CmpFloat, 3, 4, nil, skip)
			b.AddI(5, 5, 1)
			b.Label(skip)
		})
		b.Out(5)
		b.Halt()
	}
}

func TestProbBranchBackwardCompatible(t *testing.T) {
	// Without PBS hardware the marked branch behaves exactly like a
	// regular compare+jump.
	cpu := run(t, false, probCounter(10000))
	hits := int64(cpu.Output()[0])
	if hits < 2200 || hits > 2800 {
		t.Errorf("hit count %d implausible for p=0.25", hits)
	}
	if cpu.Stats().ProbBranches != 10000 {
		t.Errorf("prob branch count: %+v", cpu.Stats())
	}
}

func TestProbBranchWithPBSStatisticallySame(t *testing.T) {
	base := run(t, false, probCounter(20000))
	pbs := run(t, true, probCounter(20000))
	hb := int64(base.Output()[0])
	hp := int64(pbs.Output()[0])
	// PBS replays the recorded decisions: the count differs by at most
	// the bootstrap duplication (InFlight values used twice, the last
	// InFlight never consumed).
	if d := hb - hp; d < -4 || d > 4 {
		t.Errorf("PBS changed the hit count too much: %d vs %d", hb, hp)
	}
	if pbs.PBS().Stats().Steered == 0 {
		t.Error("no instances steered")
	}
}

func TestProbCaptureStreams(t *testing.T) {
	b := progb.New("cap", true)
	probCounter(1000)(b)
	prog, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	unit, err := core.NewUnit(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cpu, err := New(prog, rng.New(9), unit)
	if err != nil {
		t.Fatal(err)
	}
	cpu.CaptureProb = true
	if err := cpu.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(cpu.Generated) != 1000 || len(cpu.Consumed) != 1000 {
		t.Fatalf("capture lengths: %d %d", len(cpu.Generated), len(cpu.Consumed))
	}
	// The consumed stream is the generated stream delayed by InFlight.
	// Instance 0 executes before the loop's backward branch has been
	// seen, so the loop-context entry bootstraps on instances 1-4; from
	// instance 5 on, steering consumes the value from 4 instances back.
	for i := 0; i < 5; i++ {
		if cpu.Consumed[i] != cpu.Generated[i] {
			t.Fatalf("bootstrap consumed[%d] altered", i)
		}
	}
	for i := 5; i < 1000; i++ {
		if cpu.Consumed[i] != cpu.Generated[i-4] {
			t.Fatalf("consumed[%d] != generated[%d]", i, i-4)
		}
	}
}

func TestCategory2ValueSwap(t *testing.T) {
	// A Category-2 branch accumulates the probabilistic value it
	// branched on. Under PBS the accumulated values must pair with the
	// directions: every accumulated value must be < the threshold even
	// though the values are swapped.
	build := func(b *progb.Builder) {
		b.MovInt(2, 5000)
		b.MovFloat(4, 0.5)
		b.MovFloat(6, 0)
		b.ForN(1, 2, func() {
			b.RandU(3)
			skip := b.AutoLabel("skip")
			b.MarkedBranchIf(isa.CmpGE|isa.CmpFloat, 3, 4, nil, skip)
			// Taken path ⇒ the (possibly swapped) value must be < 0.5.
			b.Op3(isa.FMAX, 6, 6, 3)
			b.Label(skip)
		})
		b.Out(6)
		b.Halt()
	}
	cpu := run(t, true, build)
	maxTaken := math.Float64frombits(cpu.Output()[0])
	if maxTaken >= 0.5 {
		t.Errorf("direction/value pairing broken: accumulated value %g >= 0.5", maxTaken)
	}
}

func TestDeterministicReplay(t *testing.T) {
	// §III-B: with the same seed, PBS replays the same stream.
	a := run(t, true, probCounter(5000))
	b := run(t, true, probCounter(5000))
	if a.Output()[0] != b.Output()[0] {
		t.Error("PBS runs with the same seed diverge")
	}
}

// TestTraceSinkSeesAllInstructions: every retired instruction, branches
// included, reaches the trace sink of a Step-driven run.
func TestTraceSinkSeesAllInstructions(t *testing.T) {
	b := progb.New("t", false)
	probCounter(100)(b)
	prog, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	cpu, err := New(prog, rng.New(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	sink := &recordingSink{}
	cpu.SetTraceSink(sink)
	if err := stepRun(cpu, 0); err != nil {
		t.Fatal(err)
	}
	var branches uint64
	for _, di := range sink.trace {
		if prog.Code[di.PC].Op.IsBranch() {
			branches++
		}
	}
	if n := uint64(len(sink.trace)); n != cpu.Stats().Instructions {
		t.Errorf("sink saw %d of %d instructions", n, cpu.Stats().Instructions)
	}
	if branches == 0 {
		t.Error("sink saw no branches")
	}
}

func TestRunBudgetAndHalt(t *testing.T) {
	b := progb.New("spin", false)
	b.MovInt(1, 0)
	b.Label("top")
	b.AddI(1, 1, 1)
	b.Jmp("top")
	prog, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	cpu, err := New(prog, rng.New(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := cpu.Run(500); err != nil {
		t.Fatal(err)
	}
	if cpu.Halted() {
		t.Error("infinite loop halted")
	}
	if got := cpu.Stats().Instructions; got != 500 {
		t.Errorf("budget ignored: %d", got)
	}
	if err := New2Halted(t); err != nil {
		t.Error(err)
	}
}

// New2Halted checks stepping after halt errors.
func New2Halted(t *testing.T) error {
	b := progb.New("h", false)
	b.Halt()
	prog, _ := b.Finish()
	cpu, err := New(prog, rng.New(1), nil)
	if err != nil {
		return err
	}
	if err := cpu.Run(0); err != nil {
		return err
	}
	if !cpu.Halted() {
		t.Error("not halted")
	}
	if err := cpu.Step(); err == nil {
		t.Error("step after halt must error")
	}
	return nil
}

func TestOutputFloats(t *testing.T) {
	cpu := run(t, false, func(b *progb.Builder) {
		b.MovFloat(1, 3.5)
		b.Out(1)
		b.Halt()
	})
	fs := cpu.OutputFloats()
	if len(fs) != 1 || fs[0] != 3.5 {
		t.Errorf("OutputFloats: %v", fs)
	}
	if _, err := cpu.ReadWord(-1); err == nil {
		t.Error("ReadWord(-1) must error")
	}
}
