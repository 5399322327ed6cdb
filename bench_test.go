// Package repro's one root benchmark is a fidelity report, not a speed
// measurement: BenchmarkResolutionPenalty logs each workload's PBS IPC
// gain under the dataflow resolution penalty (go test -run '^$' -bench
// ResolutionPenalty -benchtime 1x .). The paper's tables and figures
// come from cmd/pbstables, simulator speed from perfbench/, and the
// gated unit microbenchmarks live next to the code they time under
// internal/ (scripts/bench.sh; see DESIGN.md §4).
package repro

import (
	"testing"

	"repro/internal/pipeline"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// Ablation: the honest dataflow-resolution penalty model (fetch restarts
// only after the branch's operand chain resolves) instead of the paper
// simulator's front-end accounting. PBS gains grow substantially because
// probabilistic branches sit at the end of long random-value chains.
func BenchmarkResolutionPenalty(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, name := range workloads.Names() {
			core := pipeline.FourWide()
			core.ResolutionPenalty = true
			var ipcs [2]float64
			for j, pbs := range []bool{false, true} {
				res, err := sim.Run(sim.Config{
					Workload: name, Seed: 11, Predictor: sim.PredTAGESCL,
					PBS: pbs, Core: &core,
				})
				if err != nil {
					b.Fatal(err)
				}
				ipcs[j] = res.Timing.IPC()
			}
			if i == 0 {
				b.Logf("%-10s dataflow-penalty PBS IPC gain: %+.1f%%", name, 100*(ipcs[1]/ipcs[0]-1))
			}
		}
	}
}
