package workloads

import (
	"fmt"
	"math"

	"repro/internal/isa"
	"repro/internal/progb"
)

// Bandit parameters: an epsilon-greedy agent over K Bernoulli arms
// (§II-A3, after banditlib [25]).
const (
	bdSteps = 40_000 // baseline pulls at Scale 1
	bdArms  = 8
	bdEps   = 0.1
)

// bdArmMean is the success probability of arm k (deterministic spread with
// a unique best arm). The float64 conversion rounds the product before
// the sum, so no GOARCH fuses them into one FMA (see package stats).
func bdArmMean(k int) float64 { return 0.15 + float64(0.08*float64(k)) }

// Bandit runs an epsilon-greedy multi-armed bandit. The explore/exploit
// decision — one Category-1 probabilistic branch on a uniform draw against
// the constant epsilon — sits inside the action-selection function called
// from the pull loop (like the paper's Bandit, whose probabilistic branch
// is reached through a non-inlined call).
func Bandit() *Workload {
	return &Workload{
		Name:         "Bandit",
		Category:     Category1,
		Description:  "epsilon-greedy multi-armed bandit (reward + regret)",
		ProbBranches: 1,
		ViaCall:      true,
		UniformProb:  true,
		Uniformize:   nil2identity(),
		Build:        buildBandit,
		// Table I: neither predication nor CFD applies (function call from
		// the loop; the explore path has side effects).
		BuildVariant:   nil,
		CompareOutputs: banditAccuracy,
	}
}

// nil2identity returns the exact CDF of U(0,1) — the identity on [0,1),
// clamped outside — for workloads whose branch values are already uniform.
func nil2identity() func(float64) float64 {
	return func(v float64) float64 {
		switch {
		case v <= 0:
			return 0
		case v >= 1:
			return 1
		}
		return v
	}
}

// banditAccuracy compares final reward and regret (§VII-D).
func banditAccuracy(orig, pbs []uint64) Accuracy {
	if len(orig) != 2 || len(pbs) != 2 {
		return Accuracy{Metric: "reward/regret", Value: math.Inf(1),
			Detail: "unexpected output shape"}
	}
	rewardErr := relErr(f(orig[0]), f(pbs[0]))
	regretErr := relErr(f(orig[1]), f(pbs[1]))
	worst := math.Max(rewardErr, regretErr)
	const bound = 0.05
	return Accuracy{
		Metric: "reward/regret relative error",
		Value:  worst,
		Bound:  bound,
		OK:     worst <= bound,
		Detail: fmt.Sprintf("reward err %.4g, regret err %.4g", rewardErr, regretErr),
	}
}

// Register plan for Bandit.
const (
	bdRT      isa.Reg = 1  // step index
	bdRN      isa.Reg = 2  // steps
	bdRU      isa.Reg = 3  // uniform draw (probabilistic value)
	bdREps    isa.Reg = 4  // epsilon (Const-Val)
	bdRArm    isa.Reg = 5  // chosen arm
	bdRK      isa.Reg = 6  // number of arms
	bdRJ      isa.Reg = 7  // scan index
	bdRBestQ  isa.Reg = 8  // best Q seen in argmax scan
	bdRQAddr  isa.Reg = 9  // Q[] base
	bdRNAddr  isa.Reg = 10 // N[] base
	bdRPAddr  isa.Reg = 11 // true means base
	bdRTmp    isa.Reg = 12
	bdRTmp2   isa.Reg = 13
	bdRReward isa.Reg = 14 // total reward (float)
	bdRRegret isa.Reg = 15 // total regret (float)
	bdRBestP  isa.Reg = 16 // best arm mean
	bdROne    isa.Reg = 17 // 1.0
	bdRAddr   isa.Reg = 18 // scratch address
)

func buildBandit(p Params, prob bool) (*isa.Program, error) {
	b := progb.New("Bandit", prob)
	n := bdSteps * p.scale()

	qBase := b.AllocWords(bdArms)
	nBase := b.AllocWords(bdArms)
	pBase := b.AllocWords(bdArms)
	bestP := 0.0
	for k := 0; k < bdArms; k++ {
		b.InitFloat(pBase+int64(k)*8, bdArmMean(k))
		b.InitFloat(qBase+int64(k)*8, 0)
		b.InitWord(nBase+int64(k)*8, 0)
		bestP = math.Max(bestP, bdArmMean(k))
	}

	b.MovInt(bdRN, n)
	b.MovFloat(bdREps, bdEps)
	b.MovInt(bdRK, bdArms)
	b.MovInt(bdRQAddr, qBase)
	b.MovInt(bdRNAddr, nBase)
	b.MovInt(bdRPAddr, pBase)
	b.MovFloat(bdRReward, 0)
	b.MovFloat(bdRRegret, 0)
	b.MovFloat(bdRBestP, bestP)
	b.MovFloat(bdROne, 1.0)
	rng := emitSoftLib(b, 0)

	b.Jmp("main")

	// --- action selection function ---
	b.Label("choose_action")
	b.Mov(47, isa.LR) // save the return address around the runtime calls
	rng.U01(b, bdRU)
	// Marked probabilistic branch: exploit when u >= epsilon.
	b.MarkedBranchIf(isa.CmpGE|isa.CmpFloat, bdRU, bdREps, nil, "exploit")
	// Explore: uniform random arm.
	rng.UIntN(b, bdRArm, bdArms)
	b.Mov(isa.LR, 47)
	b.Ret()
	b.Label("exploit")
	// argmax over Q[].
	b.MovInt(bdRArm, 0)
	b.Load(bdRBestQ, bdRQAddr, 0)
	b.MovInt(bdRJ, 1)
	loop := b.AutoLabel("argmax")
	b.Label(loop)
	b.OpI(isa.SHLI, bdRTmp, bdRJ, 3)
	b.Op3(isa.ADD, bdRTmp, bdRTmp, bdRQAddr)
	b.Load(bdRTmp, bdRTmp, 0)
	noUpd := b.AutoLabel("no_upd")
	b.BranchIf(isa.CmpLE|isa.CmpFloat, bdRTmp, bdRBestQ, noUpd)
	b.Mov(bdRBestQ, bdRTmp)
	b.Mov(bdRArm, bdRJ)
	b.Label(noUpd)
	b.AddI(bdRJ, bdRJ, 1)
	b.BranchIf(isa.CmpLT, bdRJ, bdRK, loop)
	b.Mov(isa.LR, 47)
	b.Ret()

	// --- main pull loop ---
	b.Label("main")
	b.ForN(bdRT, bdRN, func() {
		b.Call("choose_action")
		// Bernoulli reward, branch-free: reward = 1.0 if r < p[arm].
		b.OpI(isa.SHLI, bdRAddr, bdRArm, 3)
		b.Op3(isa.ADD, bdRAddr, bdRAddr, bdRPAddr)
		b.Load(bdRTmp2, bdRAddr, 0) // p[arm]
		rng.U01(b, bdRTmp)
		b.Op3(isa.FSUB, bdRTmp, bdRTmp, bdRTmp2) // r - p
		b.OpI(isa.SHRI, bdRTmp, bdRTmp, 63)      // 1 when r < p
		b.Op2(isa.ITOF, bdRTmp, bdRTmp)          // reward as float
		b.Op3(isa.FADD, bdRReward, bdRReward, bdRTmp)
		// N[arm]++
		b.OpI(isa.SHLI, bdRAddr, bdRArm, 3)
		b.Op3(isa.ADD, bdRAddr, bdRAddr, bdRNAddr)
		b.Load(bdRJ, bdRAddr, 0)
		b.AddI(bdRJ, bdRJ, 1)
		b.Store(bdRAddr, 0, bdRJ)
		// Q[arm] += (reward - Q[arm]) / N[arm]
		b.OpI(isa.SHLI, bdRAddr, bdRArm, 3)
		b.Op3(isa.ADD, bdRAddr, bdRAddr, bdRQAddr)
		b.Load(bdRBestQ, bdRAddr, 0)
		b.Op3(isa.FSUB, bdRTmp, bdRTmp, bdRBestQ)
		b.Op2(isa.ITOF, bdRJ, bdRJ)
		b.Op3(isa.FDIV, bdRTmp, bdRTmp, bdRJ)
		b.Op3(isa.FADD, bdRBestQ, bdRBestQ, bdRTmp)
		b.Store(bdRAddr, 0, bdRBestQ)
		// regret += bestP - p[arm]
		b.Op3(isa.FSUB, bdRTmp, bdRBestP, bdRTmp2)
		b.Op3(isa.FADD, bdRRegret, bdRRegret, bdRTmp)
	})
	b.Out(bdRReward)
	b.Out(bdRRegret)
	b.Halt()
	return b.Finish()
}
