package experiments

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/randtest"
	"repro/internal/stats"
	"repro/internal/sweep"
	"repro/internal/workloads"
)

// TableIRow is one benchmark of Table I.
type TableIRow struct {
	Workload    string
	Predication bool
	CFD         bool
	Reason      string
}

// TableIData is the Table I dataset.
type TableIData struct{ Rows []TableIRow }

// TableI reproduces Table I: whether predication and control-flow
// decoupling can be applied to each benchmark. The applicability is a
// static property of the workload (which transformed variants exist), so
// TableI simulates nothing and ignores its options.
func TableI(Options, sweep.Results) (*TableIData, error) {
	reasons := map[string]string{
		"DOP":       "digital payoff if-converts; loop splits cleanly",
		"Greeks":    "live value in control-dependent code defeats if-conversion",
		"Swaptions": "branches behind a non-inlined function call",
		"Genetic":   "read-modify-write body defeats if-conversion",
		"Photon":    "loop-carried dependence (position/weight)",
		"MC-integ":  "hit counter if-converts; loop splits cleanly",
		"PI":        "hit counter if-converts; loop splits cleanly",
		"Bandit":    "branch behind a non-inlined call; explore path has side effects",
	}
	var rows []TableIRow
	for _, w := range workloads.All() {
		rows = append(rows, TableIRow{
			Workload:    w.Name,
			Predication: w.BuildVariant[workloads.VariantPredicated] != nil,
			CFD:         w.BuildVariant[workloads.VariantCFD] != nil,
			Reason:      reasons[w.Name],
		})
	}
	return &TableIData{Rows: rows}, nil
}

func (t *TableIData) String() string {
	var sb strings.Builder
	sb.WriteString("Table I: applicability of predication and CFD (x = not applicable)\n")
	header(&sb, "benchmark", "predication", "CFD")
	mark := func(ok bool) string {
		if ok {
			return "yes"
		}
		return "x"
	}
	for _, r := range t.Rows {
		fmt.Fprintf(&sb, "%-14s%-14s%-14s; %s\n", r.Workload, mark(r.Predication), mark(r.CFD), r.Reason)
	}
	return sb.String()
}

// Measured reports nothing: Table I holds no number.
func (t *TableIData) Measured() map[string]float64 { return nil }

// TableIIRow is one benchmark of Table II.
type TableIIRow struct {
	Workload       string
	ProbBranches   int
	StaticBranches int
	Category       workloads.Category
	Instructions   uint64
}

// TableIIData is the Table II dataset.
type TableIIData struct{ Rows []TableIIRow }

// tableIIGrids is Table II's functional runs, one per benchmark.
func tableIIGrids(opt Options) []sweep.Grid {
	return []sweep.Grid{{Seeds: []uint64{opt.seed0()}, SkipTiming: true}}
}

// TableII reproduces Table II: per-benchmark characteristics — the ratio
// of probabilistic to static branches, the category, and the number of
// dynamically executed instructions at the experiment scale.
func TableII(opt Options, res sweep.Results) (*TableIIData, error) {
	names := workloads.Names()
	rows := make([]TableIIRow, len(names))
	for i, name := range names {
		w, err := workloads.ByName(name)
		if err != nil {
			return nil, err
		}
		r, err := res.Get(sweep.Key{Workload: name, Seed: opt.seed0()})
		if err != nil {
			return nil, err
		}
		rows[i] = TableIIRow{
			Workload:       name,
			ProbBranches:   w.ProbBranches,
			StaticBranches: r.Program.StaticBranchCount(),
			Category:       w.Category,
			Instructions:   r.Emu.Instructions,
		}
	}
	return &TableIIData{Rows: rows}, nil
}

func (t *TableIIData) String() string {
	var sb strings.Builder
	sb.WriteString("Table II: benchmark characteristics (instruction counts at experiment scale;\n")
	fmt.Fprintf(&sb, "the paper simulates %g-%g B instructions per benchmark)\n",
		paper("table2", "min-instructions-B"), paper("table2", "max-instructions-B"))
	header(&sb, "benchmark", "prob/static", "category", "instructions")
	for _, r := range t.Rows {
		fmt.Fprintf(&sb, "%-14s%-14s%-14d%-14d\n",
			r.Workload, fmt.Sprintf("%d/%d", r.ProbBranches, r.StaticBranches), r.Category, r.Instructions)
	}
	return sb.String()
}

// Measured reports the fewest and the most instructions a benchmark
// executes, in billions.
func (t *TableIIData) Measured() map[string]float64 {
	lo, hi := math.Inf(1), 0.0
	for _, r := range t.Rows {
		b := float64(r.Instructions) / 1e9
		lo, hi = min(lo, b), max(hi, b)
	}
	return map[string]float64{"min-instructions-B": lo, "max-instructions-B": hi}
}

// TableIIIRow is one benchmark of Table III: 95% confidence intervals of
// PASS/WEAK/FAIL counts across seeds, for the original stream and the
// PBS-consumed stream.
type TableIIIRow struct {
	Workload string
	Tests    int
	OrigPass stats.Interval
	OrigWeak stats.Interval
	OrigFail stats.Interval
	PBSPass  stats.Interval
	PBSWeak  stats.Interval
	PBSFail  stats.Interval
	Overlap  bool // all three outcome intervals overlap
}

// TableIIIData is the Table III dataset.
type TableIIIData struct{ Rows []TableIIIRow }

// tableIIIGrids is Table III's functional runs: each benchmark with
// uniform probabilistic values, PBS off and on, at every seed, capturing
// its value streams.
func tableIIIGrids(opt Options) []sweep.Grid {
	var names []string
	for _, w := range workloads.All() {
		if w.UniformProb {
			names = append(names, w.Name)
		}
	}
	return []sweep.Grid{{
		Workloads:   names,
		PBS:         []bool{false, true},
		Seeds:       opt.Seeds,
		SkipTiming:  true,
		CaptureProb: true,
	}}
}

// TableIII reproduces Table III: the randomness battery applied to the
// probabilistic value stream as generated by the original code versus as
// consumed under PBS, 95% CIs across seeds. Benchmarks whose
// branch-controlling values derive from Gaussians (DOP, Greeks) are
// excluded, exactly as in the paper.
func TableIII(opt Options, res sweep.Results) (*TableIIIData, error) {
	// Gather the streams in table order — per workload, per seed, the
	// original then the PBS stream — and run their batteries on the pool.
	var ws []*workloads.Workload
	var streams []valueStream
	for _, w := range workloads.All() {
		if !w.UniformProb {
			continue
		}
		ws = append(ws, w)
		for _, seed := range opt.Seeds {
			// Original stream: the values the baseline binary generates.
			base, err := res.Get(sweep.Key{Workload: w.Name, Seed: seed})
			if err != nil {
				return nil, err
			}
			// PBS stream: the values the algorithm observes under PBS.
			withPBS, err := res.Get(sweep.Key{Workload: w.Name, PBS: true, Seed: seed})
			if err != nil {
				return nil, err
			}
			streams = append(streams, valueStream{w, base.Generated}, valueStream{w, withPBS.Consumed})
		}
	}
	sums := summarizeAll(streams)

	var rows []TableIIIRow
	for i, w := range ws {
		var orig, pbs [3][]float64 // PASS, WEAK and FAIL counts by seed
		nTests := 0
		for j := range opt.Seeds {
			at := 2 * (i*len(opt.Seeds) + j)
			so, sp := sums[at], sums[at+1]
			for k, n := range [3]int{so.Pass, so.Weak, so.Fail} {
				orig[k] = append(orig[k], float64(n))
			}
			for k, n := range [3]int{sp.Pass, sp.Weak, sp.Fail} {
				pbs[k] = append(pbs[k], float64(n))
			}
			nTests = max(nTests, so.Total())
		}
		ci := func(xs []float64) stats.Interval {
			_, iv := stats.MeanCI95(xs)
			return iv
		}
		row := TableIIIRow{
			Workload: w.Name,
			Tests:    nTests,
			OrigPass: ci(orig[0]),
			OrigWeak: ci(orig[1]),
			OrigFail: ci(orig[2]),
			PBSPass:  ci(pbs[0]),
			PBSWeak:  ci(pbs[1]),
			PBSFail:  ci(pbs[2]),
		}
		row.Overlap = row.OrigPass.Overlaps(row.PBSPass) &&
			row.OrigWeak.Overlaps(row.PBSWeak) &&
			row.OrigFail.Overlaps(row.PBSFail)
		rows = append(rows, row)
	}
	return &TableIIIData{Rows: rows}, nil
}

// valueStream is one captured value stream of a workload.
type valueStream struct {
	w    *workloads.Workload
	vals []float64
}

// summarizeAll runs the randomness battery over every stream, on a pool
// of GOMAXPROCS goroutines, and returns the summaries in stream order.
// The batteries are independent and each reads only its own stream, so
// the summaries are those of a serial loop.
func summarizeAll(streams []valueStream) []randtest.Summary {
	sums := make([]randtest.Summary, len(streams))
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), len(streams)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(streams); i = int(next.Add(1)) - 1 {
				sums[i] = randtest.Summarize(uniformize(streams[i].w, streams[i].vals))
			}
		}()
	}
	wg.Wait()
	return sums
}

// uniformize maps captured branch values to U(0,1) with the workload's
// exact CDF, or the empirical rank transform when none exists.
func uniformize(w *workloads.Workload, vals []float64) []float64 {
	if w.Uniformize == nil {
		return stats.RankUniformize(vals)
	}
	out := make([]float64, len(vals))
	for i, v := range vals {
		out[i] = w.Uniformize(v)
	}
	return out
}

func (t *TableIIIData) String() string {
	var sb strings.Builder
	sb.WriteString("Table III: randomness battery, 95% CIs of PASS/WEAK/FAIL counts across seeds\n")
	sb.WriteString("(original stream vs PBS-consumed stream; overlap = statistically identical)\n")
	header(&sb, "benchmark", "orig PASS", "orig WEAK", "orig FAIL", "pbs PASS", "pbs WEAK", "pbs FAIL", "overlap")
	for _, r := range t.Rows {
		fmt.Fprintf(&sb, "%-14s%-14s%-14s%-14s%-14s%-14s%-14s%-14v\n",
			r.Workload,
			r.OrigPass, r.OrigWeak, r.OrigFail,
			r.PBSPass, r.PBSWeak, r.PBSFail, r.Overlap)
	}
	if len(t.Rows) > 0 {
		fmt.Fprintf(&sb, "battery size: %d test cases (paper used DieHarder's %d)\n",
			t.Rows[0].Tests, int(paper("table3", "battery-tests")))
	}
	return sb.String()
}

func (t *TableIIIData) Measured() map[string]float64 {
	tests := 0
	if len(t.Rows) > 0 {
		tests = t.Rows[0].Tests
	}
	return map[string]float64{"battery-tests": float64(tests)}
}

// CostData is the §V-C2 hardware cost breakdown.
type CostData struct {
	Config core.Config
	Cost   core.Cost
}

// HardwareCost reproduces the §V-C2 storage accounting for the paper's
// default configuration. The cost is a function of the configuration
// alone, so HardwareCost simulates nothing and ignores its options.
func HardwareCost(Options, sweep.Results) (*CostData, error) {
	cfg := core.DefaultConfig()
	return &CostData{Config: cfg, Cost: cfg.Cost()}, nil
}

func (c *CostData) String() string {
	var sb strings.Builder
	sb.WriteString("Hardware cost (Section V-C2)\n")
	fmt.Fprintf(&sb, "configuration: %d branches x %d values, %d in flight, %d context loops\n",
		c.Config.Branches, c.Config.ValuesPerBranch, c.Config.InFlight, c.Config.ContextLoops)
	fmt.Fprintf(&sb, "  Prob-BTB      %5d bits (%6.1f bytes)\n", c.Cost.ProbBTBBits, float64(c.Cost.ProbBTBBits)/8)
	fmt.Fprintf(&sb, "  SwapTable     %5d bits (%6.1f bytes)\n", c.Cost.SwapTableBits, float64(c.Cost.SwapTableBits)/8)
	fmt.Fprintf(&sb, "  Prob-in-Flight%5d bits (%6.1f bytes)\n", c.Cost.InFlightBits, float64(c.Cost.InFlightBits)/8)
	fmt.Fprintf(&sb, "  Context-Table %5d bits (%6.1f bytes)\n", c.Cost.ContextBits, float64(c.Cost.ContextBits)/8)
	fmt.Fprintf(&sb, "  total         %5d bits (%d bytes; paper: %d bytes)\n",
		c.Cost.TotalBits(), c.Cost.TotalBytes(), int(paper("cost", "total-bytes")))
	return sb.String()
}

func (c *CostData) Measured() map[string]float64 {
	return map[string]float64{"total-bytes": float64(c.Cost.TotalBytes())}
}
