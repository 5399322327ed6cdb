package sim

import (
	"fmt"

	"repro/internal/pipeline"
	"repro/internal/sample"
)

// WithSampledTiming runs the timing model in SMARTS-style sampled mode
// (Wunderlich et al., ISCA 2003): per sampling period the session
// fast-forwards on the emulator's untraced fused fast path, then warms
// the detailed model for cfg.Warmup instructions, then measures a
// cfg.Window-instruction window whose IPC/MPKI join the population the
// run's 95% confidence intervals summarize (Result.Sampled).
//
// The schedule is a pure function of the retired-instruction count, so
// a sampled run is deterministic — the same configuration times exactly
// the same windows regardless of RunFor chunking or observer placement.
// Incompatible with WithoutTiming.
func WithSampledTiming(cfg sample.Config) Option {
	return func(c *Config) { c.Sample = &cfg }
}

// sampler is one member's schedule driver: it tracks which phase the
// machine is in, switches its pipeline's consume path at phase
// boundaries (the session switches trace production, see syncSample),
// closes measurement windows into the IPC/MPKI populations, and
// accounts every retired instruction to exactly one phase.
type sampler struct {
	cfg   sample.Config
	cpis  []float64 // per-window CPI population (see sample.Estimate)
	mpkis []float64 // per-window MPKI population

	instrFF   uint64 // instructions fast-forwarded (timing model idle)
	instrWarm uint64 // instructions run under detailed warming
	instrMeas uint64 // instructions inside measured windows

	open    bool             // a measurement window is open
	winEnd  uint64           // absolute position where the open window closes
	winBase pipeline.Metrics // timing counters when the open window began
}

func newSampler(cfg sample.Config) (*sampler, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &sampler{cfg: cfg}, nil
}

// account charges the instructions retired over [from, from+n) to their
// phase. advance never lets the emulator cross a schedule boundary in
// one chunk (stop is capped at NextBoundary), so the whole interval
// belongs to PhaseAt(from).
func (sp *sampler) account(from, n uint64) {
	switch sp.cfg.PhaseAt(from) {
	case sample.FastForward:
		sp.instrFF += n
	case sample.Warming:
		sp.instrWarm += n
	case sample.Measuring:
		sp.instrMeas += n
	}
}

// estimate condenses the window populations into the SMARTS estimate.
func (sp *sampler) estimate() sample.Estimate {
	return sample.Estimate95(sp.cpis, sp.mpkis, sp.instrMeas, sp.instrWarm, sp.instrFF)
}

// syncSample reconciles the machine with the schedule at absolute
// retired-instruction position cur: every member's sampler closes a
// window whose end has been reached and switches its pipeline's consume
// path to match PhaseAt(cur), then trace production follows the phase.
// advance calls it at every chunk boundary (and once more after the run
// ends, so a window closing exactly at the end of the run is counted).
// The emulator stops exactly on every schedule boundary and flushes its
// trace first, so each switch lands between batches and the window
// delta sees a fully caught-up timing model.
func (s *Session) syncSample(cur uint64) {
	trace := true
	for _, m := range s.members {
		trace = m.sampler.sync(cur, m.pipe)
	}
	if trace {
		s.cpu.ResumeTrace()
		return
	}
	// PauseTrace flushes any straggling batch and detaches the trace
	// buffer, so the emulator's fused loop runs its zero-overhead
	// untraced path until the next detailed phase resumes it.
	s.cpu.PauseTrace()
}

// sync brings the sampler and its pipeline to position cur (see
// syncSample) and reports whether the phase needs the trace.
//
// The window close must compare against the absolute winEnd rather
// than watch for a phase change: with Period == Warmup+Window there is
// no fast-forward gap and the phase stays Measuring straight across
// the boundary from one window into the next period's warming-free
// window.
func (sp *sampler) sync(cur uint64, pipe *pipeline.Pipeline) bool {
	if sp.open && cur >= sp.winEnd {
		d := pipe.Metrics().Delta(sp.winBase)
		sp.cpis = append(sp.cpis, d.CPI())
		sp.mpkis = append(sp.mpkis, d.MPKI())
		sp.open = false
	}
	switch sp.cfg.PhaseAt(cur) {
	case sample.Measuring:
		pipe.SetFuncWarm(false)
		if !sp.open {
			sp.winBase = pipe.Metrics()
			sp.open = true
			sp.winEnd = sp.cfg.WindowEnd(cur)
		}
	case sample.Warming:
		pipe.SetFuncWarm(false)
	case sample.FastForward:
		// A functionally-warmed gap keeps the trace flowing through the
		// pipeline's cheap cache+predictor path; any other gap pauses it.
		pipe.SetFuncWarm(sp.cfg.FuncWarm)
		return sp.cfg.FuncWarm
	}
	return true
}

// validateSample checks the sampled-timing configuration at session
// construction.
func validateSample(cfg Config) error {
	if cfg.Sample == nil {
		return nil
	}
	if cfg.SkipTiming {
		return fmt.Errorf("sim: sampled timing needs the timing model (incompatible with WithoutTiming)")
	}
	return cfg.Sample.Validate()
}
