// Package repro's root benchmarks regenerate every table and figure of
// the paper's evaluation (go test -bench=.). BenchmarkArtifact/<id> runs
// one row of experiments.Artifacts per iteration and reports the
// measured value of each of its paper quantities as a custom metric.
// The others measure the simulator (see DESIGN.md §4 for the index).
package repro

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/pipeline"
	"repro/internal/sample"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/workloads"
)

// benchOptions uses fewer seeds than the default experiment so the whole
// bench suite finishes in minutes; pbstables runs the full version.
func benchOptions() experiments.Options {
	opt := experiments.DefaultOptions()
	opt.Seeds = opt.Seeds[:3]
	return opt
}

// BenchmarkArtifact runs each row of experiments.Artifacts, logs its
// text once and reports the measured value of each of its paper
// quantities as a custom metric named after the quantity. Each iteration
// plans the one artifact on a fresh engine, so every run is cold.
func BenchmarkArtifact(b *testing.B) {
	for _, a := range experiments.Artifacts {
		b.Run(a.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ds, err := experiments.Run(benchOptions(), []experiments.Artifact{a})
				if err != nil {
					b.Fatal(err)
				}
				d := ds[0]
				if i == 0 {
					b.Log("\n" + d.String())
				}
				m := d.Measured()
				for _, q := range a.Paper {
					v, ok := m[q.Name]
					if !ok {
						b.Fatalf("%s measures no %s", a.ID, q.Name)
					}
					b.ReportMetric(v, q.Name)
				}
			}
		})
	}
}

// Per-workload simulation throughput, PBS off/on, on the default core with
// the TAGE-SC-L predictor. instr/s measures simulator speed; IPC and MPKI
// report the simulated machine.
func BenchmarkWorkloads(b *testing.B) {
	for _, name := range workloads.Names() {
		for _, pbs := range []bool{false, true} {
			b.Run(fmt.Sprintf("%s/pbs=%v", name, pbs), func(b *testing.B) {
				var instrs uint64
				var ipc, mpki float64
				for i := 0; i < b.N; i++ {
					res, err := sim.Run(sim.Config{
						Workload:  name,
						Seed:      uint64(i + 1),
						Predictor: sim.PredTAGESCL,
						PBS:       pbs,
					})
					if err != nil {
						b.Fatal(err)
					}
					instrs += res.Timing.Instructions
					ipc = res.Timing.IPC()
					mpki = res.Timing.MPKI()
				}
				b.ReportMetric(float64(instrs)/b.Elapsed().Seconds(), "sim-instr/s")
				b.ReportMetric(ipc, "IPC")
				b.ReportMetric(mpki, "MPKI")
			})
		}
	}
}

// Ablation: the honest dataflow-resolution penalty model (fetch restarts
// only after the branch's operand chain resolves) instead of the paper
// simulator's front-end accounting. PBS gains grow substantially because
// probabilistic branches sit at the end of long random-value chains.
func BenchmarkResolutionPenalty(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var gains []float64
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
			gains = append(gains, 100*(ipcs[1]/ipcs[0]-1))
			if i == 0 {
				b.Logf("%-10s dataflow-penalty PBS IPC gain: %+.1f%%", name, gains[len(gains)-1])
			}
		}
	}
}

// BenchmarkSweep measures the batch engine end to end: a fresh engine per
// iteration (cold program and result caches) runs the Figure 6 grid —
// every workload × both predictors × PBS on/off — and reports sweep
// throughput in points per second.
func BenchmarkSweep(b *testing.B) {
	grid := sweep.Grid{
		Predictors: []sim.PredictorKind{sim.PredTournament, sim.PredTAGESCL},
		PBS:        []bool{false, true},
		Seeds:      []uint64{11},
	}
	points := 0
	for i := 0; i < b.N; i++ {
		res, err := (&sweep.Engine{}).Run(context.Background(), grid)
		if err != nil {
			b.Fatal(err)
		}
		points += len(res)
	}
	b.ReportMetric(float64(points)/b.Elapsed().Seconds(), "points/s")
}

// BenchmarkSampledTiming measures the SMARTS sampled-timing speedup:
// the same configuration runs once with the full timing model and once
// under a sparse sampling schedule (~3% of instructions in detailed
// windows, the rest on the emulator's untraced fast path), and the
// benchmark reports both throughputs plus their ratio. sampled-instr/s
// counts retired instructions per wall-clock second of the sampled run
// — the number the ≥5× speedup target gates — while the accuracy
// contract (full-run IPC inside the sampled 95% CI on every golden
// config) is pinned by TestSampledAccuracy in internal/sim.
func BenchmarkSampledTiming(b *testing.B) {
	cfg := sim.Config{Workload: "PI", Seed: 1, Params: workloads.Params{Scale: 8}, Predictor: sim.PredTAGESCL}
	sc := sample.Config{Window: 10_007, Period: 2_000_003, Warmup: 50_021}
	var fullSec, sampSec float64
	var instrs uint64
	var fullIPC float64
	var est *sample.Estimate
	for i := 0; i < b.N; i++ {
		start := time.Now()
		full, err := sim.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		fullSec += time.Since(start).Seconds()

		scfg := cfg
		scfg.Sample = &sc
		start = time.Now()
		res, err := sim.Run(scfg)
		if err != nil {
			b.Fatal(err)
		}
		sampSec += time.Since(start).Seconds()

		instrs += res.Emu.Instructions
		fullIPC = full.Timing.IPC()
		est = res.Sampled
	}
	b.ReportMetric(float64(instrs)/sampSec, "sampled-instr/s")
	b.ReportMetric(float64(instrs)/fullSec, "full-instr/s")
	b.ReportMetric(fullSec/sampSec, "speedup")
	b.ReportMetric(est.IPC.Mean, "IPC")
	b.Logf("full %.3fs vs sampled %.3fs (%.1fx); full IPC %.4f, sampled %.4f ± %.4f over %d windows",
		fullSec, sampSec, fullSec/sampSec, fullIPC, est.IPC.Mean, est.IPCHalfWidth(), est.Windows)
	if !est.IPC.CI.Contains(fullIPC) {
		b.Errorf("full IPC %.4f outside sampled 95%% CI [%.4f, %.4f]", fullIPC, est.IPC.CI.Lo, est.IPC.CI.Hi)
	}
}

// PBS hardware-table microbenchmark: resolution throughput of the unit
// itself (the 193-byte structure).
func BenchmarkPBSUnitResolve(b *testing.B) {
	res, err := sim.Run(sim.Config{Workload: "PI", Seed: 1, PBS: true, SkipTiming: true})
	if err != nil {
		b.Fatal(err)
	}
	_ = res
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := sim.Run(sim.Config{Workload: "PI", Seed: 1, PBS: true, SkipTiming: true,
			MaxInstrs: 200_000})
		if err != nil {
			b.Fatal(err)
		}
	}
}
