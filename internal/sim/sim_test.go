package sim

import (
	"fmt"
	"testing"

	"repro/internal/workloads"
)

func TestRunErrors(t *testing.T) {
	if _, err := Run(Config{Workload: "nope"}); err == nil {
		t.Error("unknown workload accepted")
	}
	if _, err := Run(Config{Workload: "PI", Predictor: "bogus"}); err == nil {
		t.Error("unknown predictor accepted")
	}
	if _, err := Run(Config{Workload: "Bandit", Variant: workloads.VariantCFD}); err == nil {
		t.Error("inapplicable variant accepted (Table I says CFD does not apply to Bandit)")
	}
}

func TestNewPredictorKinds(t *testing.T) {
	for _, k := range []PredictorKind{PredTournament, PredTAGESCL, PredAlways} {
		if _, err := NewPredictor(k); err != nil {
			t.Errorf("%s: %v", k, err)
		}
	}
}

func TestSkipTimingProducesNoCycles(t *testing.T) {
	res, err := Run(Config{Workload: "PI", Seed: 1, SkipTiming: true, PBS: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Timing.Cycles != 0 {
		t.Error("SkipTiming still ran the pipeline")
	}
	if res.Emu.Instructions == 0 || len(res.Outputs) == 0 {
		t.Error("functional results missing")
	}
	if res.PBSStats.Resolutions == 0 {
		t.Error("PBS stats missing")
	}
}

func TestPBSNeverHurtsMPKI(t *testing.T) {
	// Property over workloads and a few seeds: enabling PBS must not
	// increase total MPKI (it can only remove probabilistic
	// mispredictions and predictor pollution).
	for _, name := range workloads.Names() {
		for seed := uint64(1); seed <= 2; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", name, seed), func(t *testing.T) {
				t.Parallel()
				base, err := Run(Config{Workload: name, Seed: seed, Predictor: PredTAGESCL})
				if err != nil {
					t.Fatal(err)
				}
				pbs, err := Run(Config{Workload: name, Seed: seed, Predictor: PredTAGESCL, PBS: true})
				if err != nil {
					t.Fatal(err)
				}
				if pbs.Timing.MPKI() > base.Timing.MPKI()*1.05+0.1 {
					t.Errorf("PBS increased MPKI %.2f -> %.2f", base.Timing.MPKI(), pbs.Timing.MPKI())
				}
				if pbs.Timing.MPKIProb() > 0.2 {
					t.Errorf("residual probabilistic MPKI %.2f under PBS", pbs.Timing.MPKIProb())
				}
			})
		}
	}
}
