// Package sim is the top-level simulation harness. Its heart is the
// Session: a live machine built with sim.New and functional options that
// wires a workload program, the PBS unit, a branch predictor and the
// out-of-order timing model together, supports incremental stepping
// (RunFor), interval observation of a unified metrics view (Observe,
// Snapshot), and runs to completion with Run. The one-shot Run(Config)
// entry point every experiment in the paper's evaluation (Figures 1,
// 6-9, Tables II-III, §VII-D) uses is a thin wrapper over a Session and
// produces byte-identical results.
package sim

import (
	"fmt"

	"repro/internal/branch"
	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/pipeline"
	"repro/internal/sample"
	"repro/internal/workloads"
)

// PredictorKind names a front-end predictor in the branch package's
// registry (see branch.Register and branch.Names).
type PredictorKind string

// The predictors the paper evaluates (more may be registered).
const (
	PredTournament PredictorKind = "tournament"
	PredTAGESCL    PredictorKind = "tage-sc-l"
	PredAlways     PredictorKind = "always-taken"
)

// NewPredictor instantiates a predictor by registered name.
func NewPredictor(kind PredictorKind) (branch.Predictor, error) {
	return branch.New(string(kind))
}

// Config describes one simulation run.
type Config struct {
	// Workload is the benchmark name (see workloads.Names).
	Workload string
	// Params scales the workload.
	Params workloads.Params
	// Seed seeds the machine RNG.
	Seed uint64
	// Predictor selects the front-end predictor.
	Predictor PredictorKind
	// PBS enables the PBS hardware (probabilistic instructions execute as
	// regular branches when false).
	PBS bool
	// PBSConfig overrides the PBS hardware configuration; zero value means
	// core.DefaultConfig.
	PBSConfig *core.Config
	// Core is the pipeline configuration; zero value means
	// pipeline.FourWide.
	Core *pipeline.Config
	// FilterProb enables the Fig 9 interference experiment.
	FilterProb bool
	// CaptureProb records the probabilistic value streams (Table III).
	CaptureProb bool
	// MaxInstrs caps emulation (0 = run to completion).
	MaxInstrs uint64
	// Variant selects a Table I baseline build; VariantPlain runs the
	// ordinary program.
	Variant workloads.Variant
	// Program, when non-nil, is executed instead of assembling
	// Workload/Params/Variant from scratch; Workload is then only a label
	// and need not name a registered workload. A run never mutates a
	// program, so one build may be shared read-only by any number of
	// concurrent simulations (internal/sweep caches programs this way).
	Program *isa.Program
	// SkipTiming runs only the functional emulator (for accuracy and
	// randomness experiments, which need no pipeline).
	SkipTiming bool
	// Deprecated: ignored; timing is always synchronous.
	SyncTiming bool
	// Sample, when non-nil, runs the timing model in SMARTS-style sampled
	// mode: detailed timing only inside periodic warming+measurement
	// windows, functional fast-forward between them, IPC/MPKI reported as
	// mean + 95% CI over the window population (see internal/sample and
	// WithSampledTiming). Incompatible with SkipTiming.
	Sample *sample.Config
}

// Result bundles everything a run produced.
type Result struct {
	Workload string
	Program  *isa.Program
	Timing   pipeline.Metrics
	Emu      emu.Stats
	PBSStats core.Stats
	Outputs  []uint64

	// Generated and Consumed are the probabilistic value streams when
	// CaptureProb was set.
	Generated []float64
	Consumed  []float64

	// Sampled is the SMARTS estimate of a sampled-timing run (nil on a
	// full-timing run). Timing then holds only the detailed intervals'
	// counters — use EffectiveIPC/EffectiveMPKI for the run's headline
	// numbers regardless of mode.
	Sampled *sample.Estimate
}

// EffectiveIPC returns the run's headline IPC: the sampled estimate's
// mean when the run was sampled, the full timing model's IPC otherwise.
func (r *Result) EffectiveIPC() float64 {
	if r.Sampled != nil {
		return r.Sampled.IPC.Mean
	}
	return r.Timing.IPC()
}

// EffectiveMPKI returns the run's headline MPKI (see EffectiveIPC).
func (r *Result) EffectiveMPKI() float64 {
	if r.Sampled != nil {
		return r.Sampled.MPKI.Mean
	}
	return r.Timing.MPKI()
}

// BuildProgram assembles the program a Config with the given workload,
// params and variant would execute. Callers that run many configurations
// over the same program can build it once and share it read-only via
// Config.Program.
func BuildProgram(workload string, params workloads.Params, variant workloads.Variant) (*isa.Program, error) {
	w, err := workloads.ByName(workload)
	if err != nil {
		return nil, err
	}
	if params.Scale == 0 {
		params = workloads.DefaultParams()
	}
	switch variant {
	case workloads.VariantPlain:
		// Probabilistic marking is always present; PBS hardware decides.
		return w.Build(params, true)
	default:
		build := w.BuildVariant[variant]
		if build == nil {
			return nil, fmt.Errorf("sim: workload %s has no variant %v (inapplicable per Table I)", w.Name, variant)
		}
		return build(params)
	}
}

// Run executes one configuration to completion: a thin compatibility
// wrapper that builds a Session from cfg and runs it, producing results
// byte-identical to the pre-Session one-shot harness. With cfg.Program
// set, the workload name is only a label and need not be registered.
func Run(cfg Config) (*Result, error) {
	s, err := newSession(cfg)
	if err != nil {
		return nil, err
	}
	if err := s.Run(); err != nil {
		return nil, err
	}
	return s.Result(), nil
}
