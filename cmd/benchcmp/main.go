// Command benchcmp diffs two BENCH_<date>.json snapshots (written by
// scripts/bench.sh) and gates the unit microbenchmarks: it prints a
// per-benchmark table of the gated metrics and exits non-zero when the
// new snapshot regresses. A snapshot holds several samples of each
// benchmark (bench.sh runs -count 5). A gated metric regresses only
// when two things hold at once: its median moved the wrong way by more
// than the threshold, and the 95% confidence intervals of the two sample
// sets do not overlap (Georges, Buytaert & Eeckhout, "Statistically
// Rigorous Java Performance Evaluation", OOPSLA 2007). One noisy sample
// therefore cannot gate, and neither can a real but small shift.
//
// The gated metrics of a benchmark are its time metric — ns/instr or
// instr/s when it reports one, ns/op otherwise — and allocs/op. Every
// other metric is informational.
//
// Usage:
//
//	benchcmp [-threshold 5] [-all] old.json new.json
//
// Benchmarks present in only one snapshot are reported but never gate
// (renames and new benchmarks must not break the build).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/internal/stats"
)

// Snapshot mirrors the JSON scripts/bench.sh emits.
type Snapshot struct {
	Date      string        `json:"date"`
	Go        string        `json:"go"`
	Commit    string        `json:"commit"`
	Benchtime string        `json:"benchtime"`
	Count     int           `json:"count"`
	Results   []BenchResult `json:"results"`
}

// BenchResult is one sample: one result line of go test -bench, with
// its name and every reported metric (ns/op, B/op, allocs/op and the
// custom ones).
type BenchResult struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// metric is a gated metric and the direction that counts as better.
type metric struct {
	name         string
	higherBetter bool
}

// timeMetrics are the time metrics in order of preference: a benchmark
// gates on the first one both snapshots report. The per-instruction
// metrics come first because they stay comparable when an iteration's
// work changes shape.
var timeMetrics = []metric{
	{"ns/instr", false},
	{"instr/s", true},
	{"ns/op", false},
}

var allocs = metric{"allocs/op", false}

// Delta is one gated comparison of two sample sets.
type Delta struct {
	Bench, Metric string
	Old, New      float64 // medians
	OldCI, NewCI  stats.Interval
	Pct           float64 // signed percent change of the median (+Inf for 0 -> n)
	Regression    bool
}

// samples groups a snapshot's results by benchmark name and metric.
type samples map[string]map[string][]float64

func group(s *Snapshot) samples {
	g := make(samples)
	for _, r := range s.Results {
		name := normalizeName(r.Name)
		if g[name] == nil {
			g[name] = make(map[string][]float64)
		}
		for m, v := range r.Metrics {
			g[name][m] = append(g[name][m], v)
		}
	}
	return g
}

// gated returns the metrics a benchmark gates on: its time metric (the
// first of timeMetrics both sides report) and allocs/op.
func gated(om, nm map[string][]float64) []metric {
	var out []metric
	for _, m := range timeMetrics {
		if len(om[m.name]) > 0 && len(nm[m.name]) > 0 {
			out = append(out, m)
			break
		}
	}
	if len(om[allocs.name]) > 0 && len(nm[allocs.name]) > 0 {
		out = append(out, allocs)
	}
	return out
}

// compare diffs the gated metrics of every benchmark present in both
// snapshots, in sorted benchmark order.
func compare(oldS, newS *Snapshot, threshold float64) (deltas []Delta, onlyOld, onlyNew []string) {
	oldBy, newBy := group(oldS), group(newS)
	names := make([]string, 0, len(oldBy))
	for name := range oldBy {
		if _, ok := newBy[name]; ok {
			names = append(names, name)
		} else {
			onlyOld = append(onlyOld, name)
		}
	}
	for name := range newBy {
		if _, ok := oldBy[name]; !ok {
			onlyNew = append(onlyNew, name)
		}
	}
	sort.Strings(names)
	sort.Strings(onlyOld)
	sort.Strings(onlyNew)

	for _, name := range names {
		om, nm := oldBy[name], newBy[name]
		for _, m := range gated(om, nm) {
			deltas = append(deltas, diff(name, m, om[m.name], nm[m.name], threshold))
		}
	}
	return deltas, onlyOld, onlyNew
}

// diff compares one metric's two sample sets.
func diff(bench string, m metric, olds, news []float64, threshold float64) Delta {
	d := Delta{
		Bench: bench, Metric: m.name,
		Old: median(olds), New: median(news),
		OldCI: stats.Summarize95(olds).CI, NewCI: stats.Summarize95(news).CI,
	}
	var worse bool
	switch {
	case d.Old == d.New:
		// No change (covers 0 -> 0).
	case d.Old == 0:
		// 0 -> n has no finite percentage. Growth from zero is worse
		// for lower-is-better metrics (a formerly allocation-free
		// benchmark now allocates).
		d.Pct = math.Inf(1)
		worse = !m.higherBetter
	default:
		d.Pct = 100 * (d.New - d.Old) / d.Old
		if m.higherBetter {
			worse = d.Pct < -threshold
		} else {
			worse = d.Pct > threshold
		}
	}
	d.Regression = worse && !d.OldCI.Overlaps(d.NewCI)
	return d
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// normalizeName strips the trailing "-N" GOMAXPROCS suffix go test
// appends to benchmark names on multi-proc machines (BenchmarkEncode-4
// vs BenchmarkEncode on one core), so snapshots recorded on machines
// with different core counts pair up instead of silently landing in the
// never-gating unpaired buckets.
func normalizeName(name string) string {
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			return name[:i]
		}
	}
	return name
}

func loadSnapshot(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(s.Results) == 0 {
		return nil, fmt.Errorf("%s: snapshot holds no benchmark results", path)
	}
	return &s, nil
}

// halfPct is a confidence interval's half-width as a percentage of the
// median it surrounds.
func halfPct(iv stats.Interval, med float64) float64 {
	if med == 0 {
		return 0
	}
	return 100 * (iv.Hi - iv.Lo) / 2 / math.Abs(med)
}

func main() {
	threshold := flag.Float64("threshold", 5, "regression gate in percent: a gated metric's median worse by more than this, with non-overlapping 95% CIs, fails")
	all := flag.Bool("all", false, "print every gated comparison, not only the changed ones")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchcmp [-threshold pct] [-all] old.json new.json")
		os.Exit(2)
	}
	oldS, err := loadSnapshot(flag.Arg(0))
	if err != nil {
		fail(err)
	}
	newS, err := loadSnapshot(flag.Arg(1))
	if err != nil {
		fail(err)
	}

	fmt.Printf("benchcmp: %s (%s, %s) vs %s (%s, %s), gate ±%.3g%% on medians with disjoint 95%% CIs\n",
		flag.Arg(0), oldS.Commit, oldS.Date, flag.Arg(1), newS.Commit, newS.Date, *threshold)
	deltas, onlyOld, onlyNew := compare(oldS, newS, *threshold)
	regressions := 0
	fmt.Printf("%-36s %-10s %12s %7s %12s %7s %9s\n", "benchmark", "metric", "old median", "±CI", "new median", "±CI", "delta")
	for _, d := range deltas {
		if d.Regression {
			regressions++
		} else if !*all && d.Old == d.New {
			continue
		}
		mark := ""
		if d.Regression {
			mark = "  REGRESSION"
		}
		fmt.Printf("%-36s %-10s %12.4g %6.1f%% %12.4g %6.1f%% %+8.2f%%%s\n", d.Bench, d.Metric,
			d.Old, halfPct(d.OldCI, d.Old), d.New, halfPct(d.NewCI, d.New), d.Pct, mark)
	}
	for _, name := range onlyOld {
		fmt.Printf("%-36s only in %s\n", name, flag.Arg(0))
	}
	for _, name := range onlyNew {
		fmt.Printf("%-36s only in %s\n", name, flag.Arg(1))
	}
	if regressions > 0 {
		fmt.Fprintf(os.Stderr, "benchcmp: %d regression(s) beyond %.3g%%\n", regressions, *threshold)
		os.Exit(1)
	}
	// A gate that compared nothing is a broken gate, not a pass: refuse
	// rather than green-light a run whose names or metrics drifted away
	// from the baseline's.
	if len(deltas) == 0 {
		fmt.Fprintln(os.Stderr, "benchcmp: no gated metrics were comparable between the snapshots")
		os.Exit(2)
	}
	fmt.Printf("benchcmp: no regressions beyond %.3g%% across %d gated metrics\n", *threshold, len(deltas))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "benchcmp:", err)
	os.Exit(2)
}
