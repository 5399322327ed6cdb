package workloads

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/progb"
	"repro/internal/rng"
)

func runProg(t *testing.T, prog *isa.Program, seed uint64, pbs bool) *emu.CPU {
	t.Helper()
	cpu, err := emu.New(prog, rng.New(seed), newUnitOrNil(pbs))
	if err != nil {
		t.Fatal(err)
	}
	if err := cpu.Run(100_000_000); err != nil {
		t.Fatal(err)
	}
	if !cpu.Halted() {
		t.Fatal("program did not halt within budget")
	}
	return cpu
}

func TestAllWorkloadsBuildAndRun(t *testing.T) {
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			prog, err := w.Build(Params{Scale: 1}, true)
			if err != nil {
				t.Fatal(err)
			}
			if got := len(prog.ProbBranchPCs()); got != w.ProbBranches {
				t.Errorf("static prob branches: %d, metadata says %d", got, w.ProbBranches)
			}
			base := runProg(t, prog, 3, false)
			pbs := runProg(t, prog, 3, true)
			if base.Stats().ProbBranches == 0 {
				t.Error("no dynamic probabilistic branches executed")
			}
			if len(base.Output()) == 0 || len(base.Output()) != len(pbs.Output()) {
				t.Errorf("output shapes: %d vs %d", len(base.Output()), len(pbs.Output()))
			}
			acc := w.CompareOutputs(base.Output(), pbs.Output())
			if !acc.OK {
				t.Errorf("accuracy check failed: %+v", acc)
			}
		})
	}
}

func TestVariantsBuildAndMatchOutputs(t *testing.T) {
	// Predicated and CFD variants compute the same function as the plain
	// binary (same seed ⇒ statistically equal; predicated/CFD are exact
	// transformations, so outputs must be very close).
	for _, w := range All() {
		for variant, build := range w.BuildVariant {
			variant, build, w := variant, build, w
			t.Run(w.Name+variantName(variant), func(t *testing.T) {
				t.Parallel()
				prog, err := build(Params{Scale: 1})
				if err != nil {
					t.Fatal(err)
				}
				cpu := runProg(t, prog, 5, false)

				plain, err := w.Build(Params{Scale: 1}, false)
				if err != nil {
					t.Fatal(err)
				}
				ref := runProg(t, plain, 5, false)
				if len(cpu.Output()) != len(ref.Output()) {
					t.Fatalf("output shape: %d vs %d", len(cpu.Output()), len(ref.Output()))
				}
				for i := range ref.Output() {
					a := math.Float64frombits(ref.Output()[i])
					b := math.Float64frombits(cpu.Output()[i])
					if relErr(a, b) > 1e-9 && a != b {
						t.Errorf("output %d differs: %g vs %g", i, a, b)
					}
				}
			})
		}
	}
}

func variantName(v Variant) string {
	switch v {
	case VariantPredicated:
		return "-predicated"
	case VariantCFD:
		return "-cfd"
	}
	return "-plain"
}

func TestTableIApplicability(t *testing.T) {
	// The Table I matrix: predication applies exactly to DOP, MC-integ,
	// PI; CFD exactly to DOP, Greeks, Genetic, MC-integ, PI.
	pred := map[string]bool{"DOP": true, "MC-integ": true, "PI": true}
	cfd := map[string]bool{"DOP": true, "Greeks": true, "Genetic": true, "MC-integ": true, "PI": true}
	for _, w := range All() {
		if got := w.BuildVariant[VariantPredicated] != nil; got != pred[w.Name] {
			t.Errorf("%s: predication applicability %v, Table I says %v", w.Name, got, pred[w.Name])
		}
		if got := w.BuildVariant[VariantCFD] != nil; got != cfd[w.Name] {
			t.Errorf("%s: CFD applicability %v, Table I says %v", w.Name, got, cfd[w.Name])
		}
	}
}

func TestCategoriesAndMetadata(t *testing.T) {
	want := map[string]Category{
		"DOP": Category1, "Greeks": Category2, "Swaptions": Category2,
		"Genetic": Category1, "Photon": Category2, "MC-integ": Category1,
		"PI": Category1, "Bandit": Category1,
	}
	for _, w := range All() {
		if w.Category != want[w.Name] {
			t.Errorf("%s: category %d, Table II says %d", w.Name, w.Category, want[w.Name])
		}
	}
	// Category-2 workloads must actually carry probabilistic values the
	// control-dependent code reads: their PROB_CMP registers are written
	// destinations, and Photon carries a second value in a PROB_JMP.
	photon, err := ByName("Photon")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := photon.Build(Params{Scale: 1}, true)
	if err != nil {
		t.Fatal(err)
	}
	twoValue := false
	for pc, ins := range prog.Code {
		if ins.Op == isa.PROBJMP && ins.Ra != isa.R0 {
			if _, terminal := ins.Target(pc); terminal {
				twoValue = true
			}
		}
	}
	if !twoValue {
		t.Error("Photon's boundary branch does not carry a second probabilistic value")
	}
	// Swaptions and Bandit reach their branches through calls (§II-B2).
	for _, name := range []string{"Swaptions", "Bandit"} {
		w, _ := ByName(name)
		if !w.ViaCall {
			t.Errorf("%s must be marked ViaCall", name)
		}
	}
}

func TestUniformizeIsCDF(t *testing.T) {
	// Property: every exact uniformizing transform is a monotone map into
	// [0,1], and feeding it the workload's own captured values yields a
	// roughly uniform histogram.
	for _, w := range All() {
		if !w.UniformProb || w.Uniformize == nil {
			continue
		}
		w := w
		t.Run(w.Name, func(t *testing.T) {
			f := w.Uniformize
			// Monotonicity on the value domain (branch values of every
			// uniform-derived workload live in [0, 2)).
			check := func(a, b float64) bool {
				a = math.Abs(math.Mod(a, 2))
				b = math.Abs(math.Mod(b, 2))
				if math.IsNaN(a) || math.IsNaN(b) {
					return true
				}
				if a > b {
					a, b = b, a
				}
				fa, fb := f(a), f(b)
				return fa <= fb+1e-12 && fa >= 0 && fb <= 1+1e-12
			}
			if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
				t.Error(err)
			}

			// Push real captured values through and test uniformity.
			prog, err := w.Build(Params{Scale: 1}, true)
			if err != nil {
				t.Fatal(err)
			}
			cpu, err := emu.New(prog, rng.New(8), nil)
			if err != nil {
				t.Fatal(err)
			}
			cpu.CaptureProb = true
			if err := cpu.Run(3_000_000); err != nil {
				t.Fatal(err)
			}
			vals := cpu.Generated
			if len(vals) < 1000 {
				t.Skipf("only %d captured values", len(vals))
			}
			const bins = 10
			counts := make([]float64, bins)
			for _, v := range vals {
				u := f(v)
				if u < 0 || u > 1 {
					t.Fatalf("transform out of range: %g -> %g", v, u)
				}
				i := int(u * bins)
				if i >= bins {
					i = bins - 1
				}
				counts[i]++
			}
			expected := float64(len(vals)) / bins
			for i, c := range counts {
				if math.Abs(c-expected) > 6*math.Sqrt(expected)+3 {
					t.Errorf("bin %d: %v vs expected %v — transform is not the CDF", i, c, expected)
				}
			}
		})
	}
}

func TestScaleParameter(t *testing.T) {
	w, _ := ByName("PI")
	p1, err := w.Build(Params{Scale: 1}, true)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := w.Build(Params{Scale: 2}, true)
	if err != nil {
		t.Fatal(err)
	}
	c1 := runProg(t, p1, 1, false).Stats().Instructions
	c2 := runProg(t, p2, 1, false).Stats().Instructions
	if c2 < c1*3/2 {
		t.Errorf("Scale=2 ran %d instructions vs %d at Scale=1", c2, c1)
	}
}

func TestByName(t *testing.T) {
	if _, err := ByName("PI"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("unknown workload accepted")
	}
	if names := Names(); len(names) != 8 {
		t.Errorf("Names: %v", names)
	}
}

func TestSoftLibMathKernels(t *testing.T) {
	// fm_exp and fm_ln against the reference implementations over the
	// workloads' argument ranges.
	b := progb.New("softmath-probe", false)
	lib := emitSoftLib(b, libExp|libLn)
	lib.Exp(b, 21, 20)
	b.Out(21)
	b.MovFloat(22, 0)
	b.BranchIfI(isa.CmpLE, 20, 0, "skip") // raw-bit check: x <= +0
	lib.Ln(b, 22, 20)
	b.Label("skip")
	b.Out(22)
	b.Halt()
	prog, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{-3, -1.2, -0.1, 0, 0.3, 1, 2.7, 8} {
		cpu, err := emu.New(prog, rng.New(1), nil)
		if err != nil {
			t.Fatal(err)
		}
		cpu.SetReg(20, math.Float64bits(x))
		if err := cpu.Run(0); err != nil {
			t.Fatal(err)
		}
		got := math.Float64frombits(cpu.Output()[0])
		if relErr(math.Exp(x), got) > 1e-9 {
			t.Errorf("fm_exp(%g) = %g, want %g", x, got, math.Exp(x))
		}
		if x > 0 {
			gotLn := math.Float64frombits(cpu.Output()[1])
			if relErr(math.Log(x), gotLn) > 1e-9 && math.Abs(math.Log(x)-gotLn) > 1e-12 {
				t.Errorf("fm_ln(%g) = %g, want %g", x, gotLn, math.Log(x))
			}
		}
	}
}

func TestSoftLibGaussMoments(t *testing.T) {
	b := progb.New("gauss-probe", false)
	lib := emitSoftLib(b, libGauss)
	const n = 60000
	b.MovInt(2, n)
	b.MovFloat(10, 0) // sum
	b.MovFloat(11, 0) // sum of squares
	b.ForN(1, 2, func() {
		lib.Gauss(b, 3)
		b.Op3(isa.FADD, 10, 10, 3)
		b.Op3(isa.FMUL, 4, 3, 3)
		b.Op3(isa.FADD, 11, 11, 4)
	})
	b.Out(10)
	b.Out(11)
	b.Halt()
	prog, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	cpu, err := emu.New(prog, rng.New(21), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := cpu.Run(0); err != nil {
		t.Fatal(err)
	}
	mean := math.Float64frombits(cpu.Output()[0]) / n
	second := math.Float64frombits(cpu.Output()[1]) / n
	if math.Abs(mean) > 0.02 {
		t.Errorf("gauss mean %.4f", mean)
	}
	if math.Abs(second-1) > 0.03 {
		t.Errorf("gauss second moment %.4f", second)
	}
}
