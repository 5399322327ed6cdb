// Package sample defines the SMARTS-style sampled-timing schedule and
// error model (Wunderlich et al., ISCA 2003). A sampled run partitions
// the retired-instruction stream into fixed periods; each period opens
// with a measurement window (counters accumulate into the per-window
// population), fast-forwards across the gap (functional emulation only,
// the timing model idle), and closes with a detailed-warming stretch
// (the timing model runs, its counters are not measured) that leads
// straight into the next period's window. The per-window CPI/MPKI
// populations condense into mean + 95% Student-t confidence intervals
// via internal/stats — the bounded-error estimate a sampled run reports
// in place of a full-timing measurement.
//
// Putting the window FIRST in the period (warming belongs to the
// preceding period's tail) matters for short runs: window 0 then starts
// at the run's first instruction on a genuinely cold machine, exactly
// as a full-timing run experiences it, so the cold-start transient
// joins the window population instead of being structurally excluded
// from every window — an exclusion that shows up as a small but
// systematic IPC overestimate no amount of sampling can shrink.
//
// The schedule is a pure function of the absolute retired-instruction
// count, so a sampled run is deterministic: the same configuration
// times exactly the same instruction windows regardless of chunking or
// parallelism, and a checkpoint
// resumed mid-run rejoins the schedule exactly where it left off.
// sim.Session drives the three phases (see sim.WithSampledTiming);
// this package owns only the arithmetic and the estimate.
package sample

import (
	"fmt"

	"repro/internal/stats"
)

// Phase is the schedule's state at one retired-instruction position.
type Phase uint8

const (
	// FastForward: functional emulation only; the timing model sees no
	// trace and the emulator runs its untraced fused fast path.
	FastForward Phase = iota
	// Warming: the timing model consumes the trace to warm predictor,
	// caches and pipeline structures, but the window population does not
	// accumulate.
	Warming
	// Measuring: the timing model runs and the interval's counters form
	// one window of the IPC/MPKI population.
	Measuring
)

func (p Phase) String() string {
	switch p {
	case FastForward:
		return "fast-forward"
	case Warming:
		return "warming"
	case Measuring:
		return "measuring"
	default:
		return fmt.Sprintf("Phase(%d)", uint8(p))
	}
}

// Config fixes one sampling schedule. Each period of Period retired
// instructions, starting at the run's first instruction, opens with a
// measurement window of Window instructions, fast-forwards the next
// Period-Window-Warmup, and finishes with Warmup instructions of
// detailed warming ahead of the next period's window. The first window
// therefore opens on the run's cold start.
type Config struct {
	// Window is the measured-window length W in retired instructions.
	Window uint64 `json:"window"`
	// Period is the sampling period P: one window is measured every P
	// retired instructions. Period >= Warmup+Window; equality leaves no
	// fast-forward gap (back-to-back detailed timing).
	Period uint64 `json:"period"`
	// Warmup is the detailed-warming length ahead of each window.
	Warmup uint64 `json:"warmup,omitempty"`
	// FuncWarm keeps cache tags and predictor state functionally warm
	// across fast-forward gaps: instead of detaching the trace, the gap's
	// instructions stream through a cheap consumer that performs only the
	// cache accesses and predictor updates (no cycle modelling). Slower
	// than a plain fast-forward but removes the staleness bias on
	// workloads whose windows depend on state built over the whole run —
	// the SMARTS paper's "functional warming" (its always-on variant).
	FuncWarm bool `json:"func_warm,omitempty"`
}

// Validate reports schedule errors.
func (c Config) Validate() error {
	switch {
	case c.Window == 0:
		return fmt.Errorf("sample: Window must be >= 1")
	case c.Period < c.Warmup+c.Window || c.Warmup+c.Window < c.Window:
		return fmt.Errorf("sample: Period %d shorter than Warmup %d + Window %d", c.Period, c.Warmup, c.Window)
	}
	return nil
}

// phasePos returns n's position within its period: 0 is a window start.
func (c Config) phasePos(n uint64) uint64 { return n % c.Period }

// PhaseAt returns the schedule's phase at absolute retired-instruction
// position n. The phase governs the instructions retired at positions
// [n, NextBoundary(n)).
func (c Config) PhaseAt(n uint64) Phase {
	switch r := c.phasePos(n); {
	case r < c.Window:
		return Measuring
	case r < c.Period-c.Warmup:
		return FastForward
	default:
		return Warming
	}
}

// NextBoundary returns the smallest phase-transition position strictly
// greater than n — the farthest a session may run from n without
// crossing a schedule edge.
func (c Config) NextBoundary(n uint64) uint64 {
	switch r := c.phasePos(n); {
	case r < c.Window:
		return n + c.Window - r
	case r < c.Period-c.Warmup:
		return n + c.Period - c.Warmup - r
	default:
		return n + c.Period - r
	}
}

// WindowEnd returns the absolute position where the measurement window
// containing n closes. Only meaningful when PhaseAt(n) == Measuring.
func (c Config) WindowEnd(n uint64) uint64 {
	return n - c.phasePos(n) + c.Window
}

// Estimate is the SMARTS error-model output of one sampled run: the
// per-window CPI and MPKI populations condensed into mean + 95% CI,
// plus the instruction breakdown across the three phases. Windows is
// the population size; a partial window open when the run ended is
// dropped, never mixed in.
//
// CPI is the native population: because every window covers exactly W
// retired instructions, the unweighted mean of per-window CPI is the
// instruction-weighted mean — with full coverage it equals total cycles
// over total instructions exactly, so sampling it is unbiased under
// uniform window placement. (A mean of per-window IPC would not be: it
// weights each window by its cycle count's reciprocal, overweighting
// fast windows — Jensen's inequality in action.) MPKI is already
// per-instruction and inherits the same property. IPC is derived from
// CPI by inversion: the mean is 1/CPI.Mean and the interval endpoints
// swap (x -> 1/x is decreasing), so "full IPC inside the IPC CI" and
// "full CPI inside the CPI CI" are the same statement.
type Estimate struct {
	Windows int           `json:"windows"`
	CPI     stats.Summary `json:"cpi"`
	IPC     stats.Summary `json:"ipc"`
	MPKI    stats.Summary `json:"mpki"`

	InstrsMeasured      uint64 `json:"instrs_measured"`
	InstrsWarmed        uint64 `json:"instrs_warmed"`
	InstrsFastForwarded uint64 `json:"instrs_fast_forwarded"`
}

// Estimate95 condenses per-window populations into the estimate.
// cpis and mpkis must be parallel (one entry per measured window).
func Estimate95(cpis, mpkis []float64, measured, warmed, fastForwarded uint64) Estimate {
	e := Estimate{
		Windows:             len(cpis),
		CPI:                 stats.Summarize95(cpis),
		MPKI:                stats.Summarize95(mpkis),
		InstrsMeasured:      measured,
		InstrsWarmed:        warmed,
		InstrsFastForwarded: fastForwarded,
	}
	e.IPC = invertSummary(e.CPI)
	return e
}

// invertSummary maps a CPI summary to the IPC view: reciprocal mean,
// interval endpoints swapped. Degenerate zero endpoints (an empty or
// single-window population) invert to zero rather than infinity.
func invertSummary(s stats.Summary) stats.Summary {
	inv := func(v float64) float64 {
		if v == 0 {
			return 0
		}
		return 1 / v
	}
	return stats.Summary{
		Mean: inv(s.Mean),
		CI:   stats.Interval{Lo: inv(s.CI.Hi), Hi: inv(s.CI.Lo)},
	}
}

// IPCHalfWidth returns the IPC confidence interval's half-width.
func (e Estimate) IPCHalfWidth() float64 { return (e.IPC.CI.Hi - e.IPC.CI.Lo) / 2 }

// MPKIHalfWidth returns the MPKI confidence interval's half-width.
func (e Estimate) MPKIHalfWidth() float64 { return (e.MPKI.CI.Hi - e.MPKI.CI.Lo) / 2 }

func (e Estimate) String() string {
	return fmt.Sprintf("sampled %d windows: IPC %v, MPKI %v (measured %d, warmed %d, fast-forwarded %d instrs)",
		e.Windows, e.IPC, e.MPKI, e.InstrsMeasured, e.InstrsWarmed, e.InstrsFastForwarded)
}
