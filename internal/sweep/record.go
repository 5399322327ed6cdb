package sweep

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"

	"repro/internal/sim"
)

// Record is the flat, machine-readable form of one sweep result: the
// point's coordinates plus the headline metrics. Timing fields are zero
// for skip-timing points, PBS-unit fields for runs without PBS hardware.
type Record struct {
	Workload   string `json:"workload"`
	Predictor  string `json:"predictor"`
	PBS        bool   `json:"pbs"`
	Width      int    `json:"width"`
	Seed       uint64 `json:"seed"`
	Variant    string `json:"variant"`
	FilterProb bool   `json:"filter_prob,omitempty"`
	Scale      int    `json:"scale"`
	// SkipTiming, CaptureProb, MaxInstrs and WarmPrefix flag
	// functional-only, truncated, or fast-forwarded runs, whose metrics
	// must not be mixed with full runs: a warm-prefix row's timing covers
	// only the post-prefix suffix.
	SkipTiming  bool   `json:"skip_timing,omitempty"`
	CaptureProb bool   `json:"capture_prob,omitempty"`
	MaxInstrs   uint64 `json:"max_instrs,omitempty"`
	WarmPrefix  uint64 `json:"warm_prefix,omitempty"`
	// The sampling schedule marks a sampled-timing row: its IPC/MPKI are
	// the SMARTS estimate over SampleWindows measured windows (with the
	// 95% CI in the CI columns), not a full-timing measurement.
	SampleWindow   uint64 `json:"sample_window,omitempty"`
	SamplePeriod   uint64 `json:"sample_period,omitempty"`
	SampleWarmup   uint64 `json:"sample_warmup,omitempty"`
	SampleFuncWarm bool   `json:"sample_func_warm,omitempty"`
	SampleWindows  int    `json:"sample_windows,omitempty"`

	Instructions uint64  `json:"instructions"`
	Cycles       uint64  `json:"cycles,omitempty"`
	IPC          float64 `json:"ipc,omitempty"`
	Branches     uint64  `json:"branches,omitempty"`
	CondBranches uint64  `json:"cond_branches,omitempty"`
	ProbBranches uint64  `json:"prob_branches,omitempty"`
	Mispredicts  uint64  `json:"mispredicts,omitempty"`
	MPKI         float64 `json:"mpki,omitempty"`
	MPKIProb     float64 `json:"mpki_prob,omitempty"`
	MPKIReg      float64 `json:"mpki_reg,omitempty"`
	ProbSteered  uint64  `json:"prob_steered,omitempty"`
	ProbBoot     uint64  `json:"prob_bootstrap,omitempty"`
	ProbRegular  uint64  `json:"prob_regular,omitempty"`

	PBSAllocations    uint64 `json:"pbs_allocations,omitempty"`
	PBSContextClears  uint64 `json:"pbs_context_clears,omitempty"`
	PBSConstViolation uint64 `json:"pbs_const_violations,omitempty"`
	PBSCapacityMiss   uint64 `json:"pbs_capacity_misses,omitempty"`

	Outputs int `json:"outputs"`

	// Aggregate rows summarize a sharded multi-seed point: SeedSet names
	// the canonical seed list, integer counters hold means rounded to the
	// nearest integer, float metrics hold exact means, and the CI fields
	// carry the 95% Student-t interval across seeds. Per-seed rows of the
	// same point precede their aggregate row in Records order. On a
	// sampled single-seed row the same CI fields carry the SMARTS
	// estimate's 95% interval across measured windows instead.
	Aggregate bool    `json:"aggregate,omitempty"`
	SeedSet   string  `json:"seed_set,omitempty"`
	IPCCILo   float64 `json:"ipc_ci_lo,omitempty"`
	IPCCIHi   float64 `json:"ipc_ci_hi,omitempty"`
	MPKICILo  float64 `json:"mpki_ci_lo,omitempty"`
	MPKICIHi  float64 `json:"mpki_ci_hi,omitempty"`
}

// Record flattens the result for serialization: the per-point row for a
// single-seed result, the aggregate summary row for a sharded one (use
// Records for the per-seed rows as well).
func (r Result) Record() Record {
	p := r.Point.normalize()
	if r.Agg != nil {
		return aggRecord(p, r.Agg)
	}
	return simRecord(p, r.Sim)
}

// Records flattens the result into one or more rows: a single-seed
// result is one row; a sharded result is one row per seed shard followed
// by the aggregate summary row.
func (r Result) Records() []Record {
	if r.Agg == nil {
		return []Record{r.Record()}
	}
	p := r.Point.normalize()
	out := make([]Record, 0, len(r.Agg.Sims)+1)
	for i, s := range r.Agg.Sims {
		out = append(out, simRecord(p.Shard(r.Agg.Seeds[i]), s))
	}
	return append(out, aggRecord(p, r.Agg))
}

// pointRecord copies the point's coordinates — everything that
// identifies a row rather than measures it — into a Record. Both row
// kinds start here, so a new grid axis is threaded through exactly one
// place.
func pointRecord(p Point) Record {
	return Record{
		Workload:    p.Workload,
		Predictor:   string(p.Predictor),
		PBS:         p.PBS,
		Width:       p.Width,
		Seed:        p.Seed,
		SeedSet:     string(p.Key.Seeds),
		Variant:     p.Variant.String(),
		FilterProb:  p.FilterProb,
		Scale:       p.Scale,
		SkipTiming:  p.SkipTiming,
		CaptureProb: p.CaptureProb,
		MaxInstrs:   p.MaxInstrs,
		WarmPrefix:  p.WarmPrefix,

		SampleWindow:   p.SampleWindow,
		SamplePeriod:   p.SamplePeriod,
		SampleWarmup:   p.SampleWarmup,
		SampleFuncWarm: p.SampleFuncWarm,
	}
}

// aggRecord builds the aggregate summary row of a sharded point: means
// across seeds (integer counters rounded) plus the 95% CIs of the
// headline metrics.
func aggRecord(p Point, a *Aggregate) Record {
	rec := pointRecord(p)
	rec.Aggregate = true
	rec.Instructions = uint64(math.Round(a.Instructions.Mean))
	rec.Cycles = uint64(math.Round(a.Cycles.Mean))
	rec.IPC = a.IPC.Mean
	rec.MPKI = a.MPKI.Mean
	rec.MPKIProb = a.MPKIProb.Mean
	rec.MPKIReg = a.MPKIReg.Mean
	rec.IPCCILo = a.IPC.CI.Lo
	rec.IPCCIHi = a.IPC.CI.Hi
	rec.MPKICILo = a.MPKI.CI.Lo
	rec.MPKICIHi = a.MPKI.CI.Hi
	meanU := func(f func(*sim.Result) uint64) uint64 {
		s := 0.0
		for _, r := range a.Sims {
			s += float64(f(r))
		}
		return uint64(math.Round(s / float64(len(a.Sims))))
	}
	rec.Branches = meanU(func(r *sim.Result) uint64 { return r.Timing.Branches })
	rec.CondBranches = meanU(func(r *sim.Result) uint64 { return r.Timing.CondBranches })
	rec.ProbBranches = meanU(func(r *sim.Result) uint64 { return r.Timing.ProbBranches })
	rec.Mispredicts = meanU(func(r *sim.Result) uint64 { return r.Timing.Mispredicts })
	rec.ProbSteered = meanU(func(r *sim.Result) uint64 { return r.Timing.ProbSteered })
	rec.ProbBoot = meanU(func(r *sim.Result) uint64 { return r.Timing.ProbBoot })
	rec.ProbRegular = meanU(func(r *sim.Result) uint64 { return r.Timing.ProbRegular })
	rec.PBSAllocations = meanU(func(r *sim.Result) uint64 { return r.PBSStats.Allocations })
	rec.PBSContextClears = meanU(func(r *sim.Result) uint64 { return r.PBSStats.ContextClears })
	rec.PBSConstViolation = meanU(func(r *sim.Result) uint64 { return r.PBSStats.ConstViolations })
	rec.PBSCapacityMiss = meanU(func(r *sim.Result) uint64 { return r.PBSStats.CapacityMisses })
	outs := 0.0
	for _, r := range a.Sims {
		outs += float64(len(r.Outputs))
	}
	rec.Outputs = int(math.Round(outs / float64(len(a.Sims))))
	return rec
}

// simRecord flattens one single-seed simulation.
func simRecord(p Point, res *sim.Result) Record {
	m := res.Timing
	s := res.PBSStats
	rec := pointRecord(p)

	rec.Instructions = res.Emu.Instructions
	rec.Cycles = m.Cycles
	rec.IPC = m.IPC()
	rec.Branches = m.Branches
	rec.CondBranches = m.CondBranches
	rec.ProbBranches = m.ProbBranches
	rec.Mispredicts = m.Mispredicts
	rec.MPKI = m.MPKI()
	rec.MPKIProb = m.MPKIProb()
	rec.MPKIReg = m.MPKIReg()
	if e := res.Sampled; e != nil {
		// A sampled row's headline IPC/MPKI are the estimate; the raw
		// counters above still describe the detailed intervals actually
		// simulated. The CI columns carry the windows' 95% interval.
		rec.IPC = e.IPC.Mean
		rec.MPKI = e.MPKI.Mean
		rec.SampleWindows = e.Windows
		rec.IPCCILo = e.IPC.CI.Lo
		rec.IPCCIHi = e.IPC.CI.Hi
		rec.MPKICILo = e.MPKI.CI.Lo
		rec.MPKICIHi = e.MPKI.CI.Hi
	}
	rec.ProbSteered = m.ProbSteered
	rec.ProbBoot = m.ProbBoot
	rec.ProbRegular = m.ProbRegular

	rec.PBSAllocations = s.Allocations
	rec.PBSContextClears = s.ContextClears
	rec.PBSConstViolation = s.ConstViolations
	rec.PBSCapacityMiss = s.CapacityMisses

	rec.Outputs = len(res.Outputs)
	return rec
}

// Records flattens every result; sharded results contribute their
// per-seed rows followed by their aggregate row.
func (rs Results) Records() []Record {
	var out []Record
	for _, r := range rs {
		out = append(out, r.Records()...)
	}
	return out
}

// WriteRecordsJSON writes flattened records (Results.Records) as an
// indented JSON array: the bytes of a json.Encoder indenting the whole
// array by two spaces, written one row at a time through one reused
// buffer, so a write holds one row's bytes, not the array's twice. Rows
// a client reassembles from the sweep service's stream give the same
// bytes as the Records of a local batch run.
func WriteRecordsJSON(w io.Writer, recs []Record) error {
	switch {
	case recs == nil:
		_, err := io.WriteString(w, "null\n")
		return err
	case len(recs) == 0:
		_, err := io.WriteString(w, "[]\n")
		return err
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("  ", "  ") // a row is one level inside the array
	buf.WriteString("[\n")
	for i := range recs {
		buf.WriteString("  ")
		if err := enc.Encode(&recs[i]); err != nil {
			return err
		}
		// Encode ends the row with a newline; the array puts a comma
		// before it on every row but the last, and closes after that.
		buf.Truncate(buf.Len() - 1)
		if i < len(recs)-1 {
			buf.WriteString(",\n")
		} else {
			buf.WriteString("\n]\n")
		}
		if _, err := w.Write(buf.Bytes()); err != nil {
			return err
		}
		buf.Reset()
	}
	return nil
}

// csvColumns is the WriteRecordsCSV column order.
var csvColumns = []string{
	"workload", "predictor", "pbs", "width", "seed", "variant", "filter_prob", "scale",
	"skip_timing", "capture_prob", "max_instrs", "warm_prefix",
	"instructions", "cycles", "ipc", "branches", "cond_branches", "prob_branches",
	"mispredicts", "mpki", "mpki_prob", "mpki_reg",
	"prob_steered", "prob_bootstrap", "prob_regular",
	"pbs_allocations", "pbs_context_clears", "pbs_const_violations", "pbs_capacity_misses",
	"outputs",
	"aggregate", "seed_set", "ipc_ci_lo", "ipc_ci_hi", "mpki_ci_lo", "mpki_ci_hi",
	"sample_window", "sample_period", "sample_warmup", "sample_func_warm", "sample_windows",
}

// WriteRecordsCSV writes flattened records (Results.Records) as CSV with
// a header row (see WriteRecordsJSON).
func WriteRecordsCSV(w io.Writer, recs []Record) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvColumns); err != nil {
		return err
	}
	u := func(v uint64) string { return strconv.FormatUint(v, 10) }
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for _, rec := range recs {
		row := []string{
			rec.Workload, rec.Predictor, strconv.FormatBool(rec.PBS),
			strconv.Itoa(rec.Width), u(rec.Seed), rec.Variant,
			strconv.FormatBool(rec.FilterProb), strconv.Itoa(rec.Scale),
			strconv.FormatBool(rec.SkipTiming), strconv.FormatBool(rec.CaptureProb), u(rec.MaxInstrs), u(rec.WarmPrefix),
			u(rec.Instructions), u(rec.Cycles), f(rec.IPC),
			u(rec.Branches), u(rec.CondBranches), u(rec.ProbBranches),
			u(rec.Mispredicts), f(rec.MPKI), f(rec.MPKIProb), f(rec.MPKIReg),
			u(rec.ProbSteered), u(rec.ProbBoot), u(rec.ProbRegular),
			u(rec.PBSAllocations), u(rec.PBSContextClears),
			u(rec.PBSConstViolation), u(rec.PBSCapacityMiss),
			strconv.Itoa(rec.Outputs),
			strconv.FormatBool(rec.Aggregate), rec.SeedSet,
			f(rec.IPCCILo), f(rec.IPCCIHi), f(rec.MPKICILo), f(rec.MPKICIHi),
			u(rec.SampleWindow), u(rec.SamplePeriod), u(rec.SampleWarmup),
			strconv.FormatBool(rec.SampleFuncWarm), strconv.Itoa(rec.SampleWindows),
		}
		if len(row) != len(csvColumns) {
			return fmt.Errorf("sweep: csv row has %d fields, header has %d", len(row), len(csvColumns))
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
