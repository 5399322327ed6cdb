package experiments

import (
	"fmt"
	"strings"

	"repro/internal/stats"
	"repro/internal/sweep"
	"repro/internal/workloads"
)

// AccuracyRow is one benchmark of the §VII-D output-correctness study.
type AccuracyRow struct {
	Workload string
	Result   workloads.Accuracy
}

// GeneticAccuracy is the success-rate comparison of §VII-D: the paper
// reports overlapping 95% CIs of the success rate across seeds.
type GeneticAccuracy struct {
	Trials   int
	OrigRate float64
	OrigCI   stats.Interval
	PBSRate  float64
	PBSCI    stats.Interval
	Overlap  bool
}

// AccuracyData is the §VII-D dataset.
type AccuracyData struct {
	Rows    []AccuracyRow
	Genetic *GeneticAccuracy
}

// accuracyGrids is §VII-D's functional runs: every benchmark with PBS
// off and on at the first seed, and Genetic at every seed for its
// success-rate study.
func accuracyGrids(opt Options) []sweep.Grid {
	return []sweep.Grid{
		{PBS: []bool{false, true}, Seeds: []uint64{opt.seed0()}, SkipTiming: true},
		{Workloads: []string{"Genetic"}, PBS: []bool{false, true}, Seeds: opt.Seeds, SkipTiming: true},
	}
}

// Accuracy reproduces §VII-D: application-specific output quality of PBS
// runs against the original code with the same seed. Genetic additionally
// gets the multi-seed success-rate confidence-interval comparison.
func Accuracy(opt Options, res sweep.Results) (*AccuracyData, error) {
	names := workloads.Names()
	rows := make([]AccuracyRow, len(names))
	for i, name := range names {
		w, err := workloads.ByName(name)
		if err != nil {
			return nil, err
		}
		baseRes, err := res.Get(sweep.Key{Workload: name, Seed: opt.seed0()})
		if err != nil {
			return nil, err
		}
		pbsRes, err := res.Get(sweep.Key{Workload: name, PBS: true, Seed: opt.seed0()})
		if err != nil {
			return nil, err
		}
		rows[i] = AccuracyRow{Workload: name, Result: w.CompareOutputs(baseRes.Outputs, pbsRes.Outputs)}
	}

	gen, err := geneticSuccess(opt, res)
	if err != nil {
		return nil, err
	}
	return &AccuracyData{Rows: rows, Genetic: gen}, nil
}

// geneticSuccess measures the Genetic success rate with and without PBS
// across the seed set (the paper uses 8 seeds and compares 95% CIs).
func geneticSuccess(opt Options, res sweep.Results) (*GeneticAccuracy, error) {
	var k [2]int // successes with PBS off, on
	for _, seed := range opt.Seeds {
		for pbs := range 2 {
			r, err := res.Get(sweep.Key{Workload: "Genetic", PBS: pbs == 1, Seed: seed})
			if err != nil {
				return nil, err
			}
			if len(r.Outputs) > 0 && r.Outputs[0] == 1 {
				k[pbs]++
			}
		}
	}
	ko, kp := k[0], k[1]
	n := len(opt.Seeds)
	g := &GeneticAccuracy{
		Trials:   n,
		OrigRate: float64(ko) / float64(n),
		OrigCI:   stats.ProportionCI95(ko, n),
		PBSRate:  float64(kp) / float64(n),
		PBSCI:    stats.ProportionCI95(kp, n),
	}
	g.Overlap = g.OrigCI.Overlaps(g.PBSCI)
	return g, nil
}

func (a *AccuracyData) String() string {
	var sb strings.Builder
	sb.WriteString("Section VII-D: output correctness under PBS (same seed as original)\n")
	header(&sb, "benchmark", "metric", "measured", "bound", "ok")
	for _, r := range a.Rows {
		detail := r.Result.Detail
		if r.Workload == "Photon" {
			detail += fmt.Sprintf(" (paper: %g%%)", paper("accuracy", "photon-image-RMS-%"))
		}
		fmt.Fprintf(&sb, "%-14s%-28s%-14.4g%-14.4g%-6v %s\n",
			r.Workload, r.Result.Metric, r.Result.Value, r.Result.Bound, r.Result.OK, detail)
	}
	if a.Genetic != nil {
		g := a.Genetic
		fmt.Fprintf(&sb, "Genetic success rate over %d seeds: original %.3f %v vs PBS %.3f %v; CIs overlap: %v\n",
			g.Trials, g.OrigRate, g.OrigCI, g.PBSRate, g.PBSCI, g.Overlap)
		p := func(name string) float64 { return paper("accuracy", "genetic-"+name) }
		fmt.Fprintf(&sb, "(paper: %g [%g,%g] vs %g [%g,%g], overlapping)\n",
			p("orig-success"), p("orig-success-lo"), p("orig-success-hi"),
			p("pbs-success"), p("pbs-success-lo"), p("pbs-success-hi"))
	}
	return sb.String()
}

// Measured reports Photon's image RMS error in percent and the Genetic
// success rates with their 95% CIs.
func (a *AccuracyData) Measured() map[string]float64 {
	m := make(map[string]float64)
	for _, r := range a.Rows {
		if r.Workload == "Photon" {
			m["photon-image-RMS-%"] = 100 * r.Result.Value
		}
	}
	if g := a.Genetic; g != nil {
		m["genetic-orig-success"], m["genetic-orig-success-lo"], m["genetic-orig-success-hi"] = g.OrigRate, g.OrigCI.Lo, g.OrigCI.Hi
		m["genetic-pbs-success"], m["genetic-pbs-success-lo"], m["genetic-pbs-success-hi"] = g.PBSRate, g.PBSCI.Lo, g.PBSCI.Hi
	}
	return m
}

// BaselineRow compares PBS against the Table I alternative techniques on
// one benchmark.
type BaselineRow struct {
	Workload      string
	BaselineIPC   float64 // plain binary, TAGE-SC-L, no PBS
	PBSIPC        float64
	PredicatedIPC float64 // 0 when inapplicable
	CFDIPC        float64 // 0 when inapplicable
}

// BaselineData is the §IV / Table I quantitative comparison.
type BaselineData struct{ Rows []BaselineRow }

// baselineGrids is §IV's runs on TAGE-SC-L: the plain binary with PBS
// off and on, and the predicated and CFD builds where they apply.
func baselineGrids(opt Options) []sweep.Grid {
	return []sweep.Grid{
		{PBS: []bool{false, true}, Seeds: []uint64{opt.seed0()}},
		{
			Seeds:            []uint64{opt.seed0()},
			Variants:         []workloads.Variant{workloads.VariantPredicated, workloads.VariantCFD},
			SkipInapplicable: true,
		},
	}
}

// BaselineComparison quantifies the §IV trade-off discussion: PBS against
// if-conversion and CFD for the benchmarks where those transformations
// apply (CFD pays loop-splitting and queue push/pop overhead; predication
// pays fetch of both paths).
func BaselineComparison(opt Options, res sweep.Results) (*BaselineData, error) {
	names := workloads.Names()
	rows := make([]BaselineRow, len(names))
	for i, name := range names {
		w, err := workloads.ByName(name)
		if err != nil {
			return nil, err
		}
		row := BaselineRow{Workload: name}
		base, err := res.Get(sweep.Key{Workload: name, Seed: opt.seed0()})
		if err != nil {
			return nil, err
		}
		row.BaselineIPC = base.Timing.IPC()
		pbs, err := res.Get(sweep.Key{Workload: name, PBS: true, Seed: opt.seed0()})
		if err != nil {
			return nil, err
		}
		row.PBSIPC = pbs.Timing.IPC()
		for variant, dst := range map[workloads.Variant]*float64{
			workloads.VariantPredicated: &row.PredicatedIPC,
			workloads.VariantCFD:        &row.CFDIPC,
		} {
			if w.BuildVariant[variant] == nil {
				continue
			}
			vr, err := res.Get(sweep.Key{Workload: name, Seed: opt.seed0(), Variant: variant})
			if err != nil {
				return nil, err
			}
			// Variants execute different instruction counts; compare
			// work rate via cycles for the same algorithmic work:
			// report effective IPC of the plain instruction budget.
			*dst = float64(base.Timing.Instructions) / float64(vr.Timing.Cycles)
		}
		rows[i] = row
	}
	return &BaselineData{Rows: rows}, nil
}

func (b *BaselineData) String() string {
	var sb strings.Builder
	sb.WriteString("Baseline comparison (Section IV): effective speed on the plain binary's\n")
	sb.WriteString("instruction budget; predication/CFD entries blank when inapplicable (Table I)\n")
	header(&sb, "benchmark", "baseline", "PBS", "predicated", "CFD")
	for _, r := range b.Rows {
		opt := func(v float64) string {
			if v == 0 {
				return "-"
			}
			return fmt.Sprintf("%.3f", v)
		}
		fmt.Fprintf(&sb, "%-14s%-14.3f%-14.3f%-14s%-14s\n",
			r.Workload, r.BaselineIPC, r.PBSIPC, opt(r.PredicatedIPC), opt(r.CFDIPC))
	}
	return sb.String()
}

// Measured reports nothing: the paper's §IV comparison gives no number.
func (b *BaselineData) Measured() map[string]float64 { return nil }
