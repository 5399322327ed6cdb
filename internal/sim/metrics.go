package sim

import (
	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/pipeline"
	"repro/internal/sample"
)

// Metrics is one sample of a machine's counters: the three component
// stats structs a Result carries, under the same field names, taken
// while the machine runs and subtracted to form interval deltas (see
// Delta and Session.Observe).
//
// Emu is always populated. Timing is zero when the session runs
// without the pipeline (WithoutTiming) and covers only the timed
// instructions otherwise: the detailed phases of a sampled run, the
// suffix after a FastForward. Rates therefore come from Timing
// alone (m.Timing.IPC(), m.Timing.MPKI(), ...), never from a mix of
// emulator and timing counts. PBSStats is zero when the PBS hardware is
// disabled.
type Metrics struct {
	Emu      emu.Stats
	Timing   pipeline.Metrics
	PBSStats core.Stats
	// Sampled is the sampled-timing estimate so far (zero on full-timing
	// runs). It is a derived state, not a counter: Delta carries the
	// current value through unchanged, so observers watch the estimate
	// converge as windows accumulate.
	Sampled sample.Estimate
}

// Delta returns the change from prev to m, component by component.
// prev must be an earlier sample of the same machine, so counters never
// decrease. PBSStats.MaxLiveBranches (a high-water mark) and Sampled (a
// derived estimate) are passed through at m's value. Interval rates
// fall out directly: the IPC over an interval is
// total.Delta(prev).Timing.IPC().
func (m Metrics) Delta(prev Metrics) Metrics {
	return Metrics{
		Emu:      m.Emu.Delta(prev.Emu),
		Timing:   m.Timing.Delta(prev.Timing),
		PBSStats: m.PBSStats.Delta(prev.PBSStats),
		Sampled:  m.Sampled,
	}
}

// Snapshot is one Observe sample of a live session: Total holds the
// cumulative metrics since the machine started, Delta the change since
// the same observer's previous sample (since registration for its
// first).
type Snapshot struct {
	Total Metrics
	Delta Metrics
}
