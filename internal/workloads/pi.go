package workloads

import (
	"math"

	"repro/internal/isa"
	"repro/internal/progb"
)

// piIterations is the baseline sample count at Scale 1.
const piIterations = 150_000

// PI estimates π by sampling points in the unit square and testing whether
// they fall inside the quarter circle (§II-A5). One Category-1
// probabilistic branch: the hit test on s = dx² + dy² against the constant
// 1.0.
func PI() *Workload {
	return &Workload{
		Name:         "PI",
		Category:     Category1,
		Description:  "Monte Carlo estimation of pi (hit-or-miss quarter circle)",
		ProbBranches: 1,
		UniformProb:  true,
		Uniformize:   piCDF,
		Build:        buildPI,
		BuildVariant: map[Variant]func(Params) (*isa.Program, error){
			VariantPredicated: buildPIPredicated,
			VariantCFD:        buildPICFD,
		},
		CompareOutputs: relErrAccuracy("relative error", 1e-3),
	}
}

// piCDF is the exact CDF of S = U1² + U2² for independent U(0,1) draws,
// mapping the captured branch value to a uniform variate.
func piCDF(s float64) float64 {
	switch {
	case s <= 0:
		return 0
	case s <= 1:
		return math.Pi * s / 4
	case s < 2:
		return math.Sqrt(s-1) + float64(s*math.Asin(1/math.Sqrt(s))) - float64(math.Pi*s/4)
	default:
		return 1
	}
}

// Register plan for the PI kernel.
const (
	piRI    isa.Reg = 1 // loop index
	piRN    isa.Reg = 2 // iteration bound
	piRDX   isa.Reg = 3
	piRDY   isa.Reg = 4
	piRS    isa.Reg = 5 // dx²+dy², the probabilistic value
	piROne  isa.Reg = 6 // constant 1.0
	piRHits isa.Reg = 7
	piRT    isa.Reg = 8
	piRT2   isa.Reg = 9
)

func buildPI(p Params, prob bool) (*isa.Program, error) {
	b := progb.New("PI", prob)
	n := piIterations * p.scale()
	b.MovInt(piRN, n)
	b.MovInt(piRHits, 0)
	b.MovFloat(piROne, 1.0)
	rng := emitSoftLib(b, 0)
	b.ForN(piRI, piRN, func() {
		rng.U01(b, piRDX)
		rng.U01(b, piRDY)
		b.Op3(isa.FMUL, piRT, piRDX, piRDX)
		b.Op3(isa.FMUL, piRS, piRDY, piRDY)
		b.Op3(isa.FADD, piRS, piRS, piRT)
		skip := b.AutoLabel("miss")
		// if s >= 1.0 the sample misses: skip the increment. This is the
		// marked probabilistic branch.
		b.MarkedBranchIf(isa.CmpGE|isa.CmpFloat, piRS, piROne, nil, skip)
		b.AddI(piRHits, piRHits, 1)
		b.Label(skip)
	})
	emitPIOutputs(b)
	return b.Finish()
}

// emitPIOutputs converts hits/n to the π estimate and emits outputs.
func emitPIOutputs(b *progb.Builder) {
	b.Op2(isa.ITOF, piRT, piRHits)
	b.Op2(isa.ITOF, piRT2, piRN)
	b.Op3(isa.FDIV, piRT, piRT, piRT2)
	b.MovFloat(piRT2, 4.0)
	b.Op3(isa.FMUL, piRT, piRT, piRT2)
	b.Out(piRT)
	b.Halt()
}

// buildPIPredicated is the if-converted variant (Table I: predication
// applicable): the hit test becomes branch-free arithmetic — the sign bit
// of s-1 is the increment.
func buildPIPredicated(p Params) (*isa.Program, error) {
	b := progb.New("PI-pred", false)
	n := piIterations * p.scale()
	b.MovInt(piRN, n)
	b.MovInt(piRHits, 0)
	b.MovFloat(piROne, 1.0)
	rng := emitSoftLib(b, 0)
	b.ForN(piRI, piRN, func() {
		rng.U01(b, piRDX)
		rng.U01(b, piRDY)
		b.Op3(isa.FMUL, piRT, piRDX, piRDX)
		b.Op3(isa.FMUL, piRS, piRDY, piRDY)
		b.Op3(isa.FADD, piRS, piRS, piRT)
		// hit = sign(s - 1.0): IEEE sign bit of the difference.
		b.Op3(isa.FSUB, piRT, piRS, piROne)
		b.OpI(isa.SHRI, piRT, piRT, 63)
		b.Op3(isa.ADD, piRHits, piRHits, piRT)
	})
	emitPIOutputs(b)
	return b.Finish()
}

// buildPICFD is the control-flow-decoupled variant (Table I: CFD
// applicable): a first loop computes the hit predicates into a memory
// queue; a second loop pops them and updates the counter — the structure
// of Sheikh et al. with its extra push/pop instruction overhead.
func buildPICFD(p Params) (*isa.Program, error) {
	b := progb.New("PI-cfd", false)
	n := piIterations * p.scale()
	queue := b.Alloc(n * 8)
	const rQ isa.Reg = 10
	b.MovInt(piRN, n)
	b.MovInt(piRHits, 0)
	b.MovFloat(piROne, 1.0)
	// Loop 1: produce predicates.
	rng := emitSoftLib(b, 0)
	b.MovInt(rQ, queue)
	b.ForN(piRI, piRN, func() {
		rng.U01(b, piRDX)
		rng.U01(b, piRDY)
		b.Op3(isa.FMUL, piRT, piRDX, piRDX)
		b.Op3(isa.FMUL, piRS, piRDY, piRDY)
		b.Op3(isa.FADD, piRS, piRS, piRT)
		b.Op3(isa.FSUB, piRT, piRS, piROne)
		b.OpI(isa.SHRI, piRT, piRT, 63) // 1 = hit
		b.Store(rQ, 0, piRT)            // push
		b.AddI(rQ, rQ, 8)
	})
	// Loop 2: consume predicates; the branch is now perfectly separable
	// but still data-random — CFD removes its misprediction by branching
	// on the queued value only to guard the (empty) else side; here the
	// consume loop adds the predicate directly, as the CFD transform would
	// simplify a counter update.
	b.MovInt(rQ, queue)
	b.ForN(piRI, piRN, func() {
		b.Load(piRT, rQ, 0) // pop
		b.AddI(rQ, rQ, 8)
		b.Op3(isa.ADD, piRHits, piRHits, piRT)
	})
	emitPIOutputs(b)
	return b.Finish()
}
