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
// the same windows regardless of RunFor chunking.
// Incompatible with WithoutTiming.
func WithSampledTiming(cfg sample.Config) Option {
	return func(c *Config) { c.Sample = &cfg }
}

// schedule is a sampled session's position in its schedule, shared by
// every member (AddMember requires one schedule): it tracks which phase
// the machine is in, whether a measurement window is open, and
// accounts every retired instruction to exactly one phase.
type schedule struct {
	cfg sample.Config

	instrFF   uint64 // instructions fast-forwarded (timing model idle)
	instrWarm uint64 // instructions run under detailed warming
	instrMeas uint64 // instructions inside measured windows

	open   bool   // a measurement window is open
	winEnd uint64 // absolute position where the open window closes
}

// sampler is one member's share of a sampled run: the window
// populations its timing model measured, and its counters when the
// open window began.
type sampler struct {
	cpis    []float64        // per-window CPI population (see sample.Estimate)
	mpkis   []float64        // per-window MPKI population
	winBase pipeline.Metrics // timing counters when the open window began
}

// account charges the instructions retired over [from, from+n) to their
// phase. advance never lets the emulator cross a schedule boundary in
// one chunk (stop is capped at NextBoundary), so the whole interval
// belongs to PhaseAt(from).
func (sc *schedule) account(from, n uint64) {
	switch sc.cfg.PhaseAt(from) {
	case sample.FastForward:
		sc.instrFF += n
	case sample.Warming:
		sc.instrWarm += n
	case sample.Measuring:
		sc.instrMeas += n
	}
}

// estimate condenses the member's window populations into the SMARTS
// estimate.
func (sp *sampler) estimate(sc *schedule) sample.Estimate {
	return sample.Estimate95(sp.cpis, sp.mpkis, sc.instrMeas, sc.instrWarm, sc.instrFF)
}

// syncSample reconciles the machine with the schedule at absolute
// retired-instruction position cur: a window whose end has been reached
// closes into every member's populations, a window opens if the phase
// measures, and the trace follows the phase — to the members' stages
// and schedules, to the stages alone on a functionally warmed gap (see
// warming), or nowhere on any other gap. advance calls it at every
// chunk boundary (and once more after the run ends, so a window closing
// exactly at the end of the run is counted). The emulator stops exactly
// on every schedule boundary and flushes its trace first, so each
// switch lands between batches and the window delta sees a fully
// caught-up timing model.
//
// The window close compares against the absolute winEnd rather than
// watching for a phase change: with Period == Warmup+Window there is no
// fast-forward gap and the phase stays Measuring straight across the
// boundary from one window into the next period's warming-free window.
func (s *Session) syncSample(cur uint64) {
	sc := s.sched
	closing := sc.open && cur >= sc.winEnd
	phase := sc.cfg.PhaseAt(cur)
	opening := phase == sample.Measuring && (closing || !sc.open)
	for _, m := range s.members {
		sp := m.sampler
		if closing {
			d := m.pipe.Metrics().Delta(sp.winBase)
			sp.cpis = append(sp.cpis, d.CPI())
			sp.mpkis = append(sp.mpkis, d.MPKI())
		}
		if opening {
			sp.winBase = m.pipe.Metrics()
		}
	}
	if closing {
		sc.open = false
	}
	if opening {
		sc.open = true
		sc.winEnd = sc.cfg.WindowEnd(cur)
	}
	switch {
	case phase != sample.FastForward:
		s.cpu.SetTraceSink(s.timing)
	case sc.cfg.FuncWarm:
		// The gap keeps the trace flowing through the stages' cheap
		// cache+predictor pass.
		s.cpu.SetTraceSink((*warming)(s.timing))
	default:
		// No sink: any straggling batch is flushed first, and the
		// emulator's fused loop runs its zero-overhead untraced path
		// until the next detailed phase installs the timing sink again.
		s.cpu.SetTraceSink(nil)
	}
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
