package workloads

import (
	"math"

	"repro/internal/isa"
	"repro/internal/progb"
)

// mcIterations is the baseline sample count at Scale 1.
const mcIterations = 150_000

// MCInteg integrates f(x) = x² over [0,1] by hit-or-miss Monte Carlo
// (§II-A5). The natural source compares y < f(x) where f(x) changes every
// iteration; to satisfy the PBS correctness rule (§IV) the build computes
// t = y - x² and compares against the constant zero — one Category-1
// probabilistic branch.
func MCInteg() *Workload {
	return &Workload{
		Name:         "MC-integ",
		Category:     Category1,
		Description:  "Monte Carlo hit-or-miss integration of x^2 over [0,1]",
		ProbBranches: 1,
		UniformProb:  true,
		Uniformize:   mcIntegCDF,
		Build:        buildMCInteg,
		BuildVariant: map[Variant]func(Params) (*isa.Program, error){
			VariantPredicated: buildMCIntegPredicated,
			VariantCFD:        buildMCIntegCFD,
		},
		CompareOutputs: relErrAccuracy("relative error", 1e-3),
	}
}

// mcIntegCDF is the exact CDF of T = Y - X² for independent U(0,1) draws.
func mcIntegCDF(t float64) float64 {
	switch {
	case t <= -1:
		return 0
	case t <= 0:
		return t + 1.0/3.0 + float64((2.0/3.0)*math.Pow(-t, 1.5))
	case t < 1:
		return 1 - float64((2.0/3.0)*math.Pow(1-t, 1.5))
	default:
		return 1
	}
}

// Register plan for the MC-integ kernel.
const (
	mcRI    isa.Reg = 1
	mcRN    isa.Reg = 2
	mcRX    isa.Reg = 3
	mcRY    isa.Reg = 4
	mcRT    isa.Reg = 5 // t = y - x², the probabilistic value
	mcRZero isa.Reg = 6 // constant 0.0
	mcRHits isa.Reg = 7
	mcRTmp  isa.Reg = 8
	mcRTmp2 isa.Reg = 9
)

func buildMCInteg(p Params, prob bool) (*isa.Program, error) {
	b := progb.New("MC-integ", prob)
	n := mcIterations * p.scale()
	b.MovInt(mcRN, n)
	b.MovInt(mcRHits, 0)
	b.MovFloat(mcRZero, 0.0)
	rng := emitSoftLib(b, 0)
	b.ForN(mcRI, mcRN, func() {
		rng.U01(b, mcRX)
		rng.U01(b, mcRY)
		b.Op3(isa.FMUL, mcRTmp, mcRX, mcRX)
		b.Op3(isa.FSUB, mcRT, mcRY, mcRTmp)
		skip := b.AutoLabel("above")
		// The sample is above the curve when t >= 0: skip the hit.
		b.MarkedBranchIf(isa.CmpGE|isa.CmpFloat, mcRT, mcRZero, nil, skip)
		b.AddI(mcRHits, mcRHits, 1)
		b.Label(skip)
	})
	emitMCOutputs(b)
	return b.Finish()
}

// emitMCOutputs emits the estimated area hits/n.
func emitMCOutputs(b *progb.Builder) {
	b.Op2(isa.ITOF, mcRTmp, mcRHits)
	b.Op2(isa.ITOF, mcRTmp2, mcRN)
	b.Op3(isa.FDIV, mcRTmp, mcRTmp, mcRTmp2)
	b.Out(mcRTmp)
	b.Halt()
}

// buildMCIntegPredicated is the if-converted variant (Table I).
func buildMCIntegPredicated(p Params) (*isa.Program, error) {
	b := progb.New("MC-integ-pred", false)
	n := mcIterations * p.scale()
	b.MovInt(mcRN, n)
	b.MovInt(mcRHits, 0)
	rng := emitSoftLib(b, 0)
	b.ForN(mcRI, mcRN, func() {
		rng.U01(b, mcRX)
		rng.U01(b, mcRY)
		b.Op3(isa.FMUL, mcRTmp, mcRX, mcRX)
		b.Op3(isa.FSUB, mcRT, mcRY, mcRTmp)
		b.OpI(isa.SHRI, mcRTmp, mcRT, 63) // sign bit: 1 when y < x² fails... t<0 means hit
		b.Op3(isa.ADD, mcRHits, mcRHits, mcRTmp)
	})
	emitMCOutputs(b)
	return b.Finish()
}

// buildMCIntegCFD is the control-flow-decoupled variant (Table I).
func buildMCIntegCFD(p Params) (*isa.Program, error) {
	b := progb.New("MC-integ-cfd", false)
	n := mcIterations * p.scale()
	queue := b.Alloc(n * 8)
	const rQ isa.Reg = 10
	b.MovInt(mcRN, n)
	b.MovInt(mcRHits, 0)
	rng := emitSoftLib(b, 0)
	b.MovInt(rQ, queue)
	b.ForN(mcRI, mcRN, func() {
		rng.U01(b, mcRX)
		rng.U01(b, mcRY)
		b.Op3(isa.FMUL, mcRTmp, mcRX, mcRX)
		b.Op3(isa.FSUB, mcRT, mcRY, mcRTmp)
		b.OpI(isa.SHRI, mcRTmp, mcRT, 63)
		b.Store(rQ, 0, mcRTmp)
		b.AddI(rQ, rQ, 8)
	})
	b.MovInt(rQ, queue)
	b.ForN(mcRI, mcRN, func() {
		b.Load(mcRTmp, rQ, 0)
		b.AddI(rQ, rQ, 8)
		b.Op3(isa.ADD, mcRHits, mcRHits, mcRTmp)
	})
	emitMCOutputs(b)
	return b.Finish()
}
