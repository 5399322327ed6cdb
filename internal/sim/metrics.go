package sim

import (
	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/pipeline"
	"repro/internal/sample"
)

// Metrics is one sample of a machine's counters: the three component
// stats structs a Result carries, under the same field names, taken
// while the machine runs (see Session.Snapshot). The timing counters of
// two samples subtract into an interval's (see pipeline.Metrics.Delta).
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
	// runs). It is a derived state, not a counter: successive samples
	// show the estimate converge as windows accumulate.
	Sampled sample.Estimate
}
