package main

import (
	"math"
	"os"
	"path/filepath"
	"testing"
)

func snap(results ...BenchResult) *Snapshot {
	return &Snapshot{Date: "2026-10-20", Commit: "abc", Count: 5, Results: results}
}

func bench(name string, metrics map[string]float64) BenchResult {
	return BenchResult{Name: name, Iterations: 1, Metrics: metrics}
}

// runs returns one sample of name per value, each reporting the value
// as metric.
func runs(name, metric string, values ...float64) []BenchResult {
	out := make([]BenchResult, len(values))
	for i, v := range values {
		out[i] = bench(name, map[string]float64{metric: v})
	}
	return out
}

func find(t *testing.T, deltas []Delta, benchName, metric string) Delta {
	t.Helper()
	for _, d := range deltas {
		if d.Bench == benchName && d.Metric == metric {
			return d
		}
	}
	t.Fatalf("no delta for %s %s", benchName, metric)
	return Delta{}
}

// TestThroughputRegressionGates: a median drop beyond the threshold
// whose 95% CIs do not overlap gates; a drop within the threshold does
// not, nor does a speedup.
func TestThroughputRegressionGates(t *testing.T) {
	const name = "BenchmarkEmuStep"
	oldS := snap(runs(name, "instr/s", 100e6, 101e6, 99e6, 100.5e6, 99.5e6)...)
	cases := []struct {
		new  []float64
		gate bool
	}{
		{[]float64{90e6, 91e6, 89e6, 90.5e6, 89.5e6}, true},       // -10%, tight
		{[]float64{97e6, 98e6, 96e6, 97.5e6, 96.5e6}, false},      // -3%, within
		{[]float64{200e6, 201e6, 199e6, 200.5e6, 199.5e6}, false}, // 2x faster
	}
	for _, c := range cases {
		deltas, _, _ := compare(oldS, snap(runs(name, "instr/s", c.new...)...), 5)
		if d := find(t, deltas, name, "instr/s"); d.Regression != c.gate {
			t.Errorf("%v -> %v: regression %v, want %v (%+v)", oldS.Results[0].Metrics, c.new, d.Regression, c.gate, d)
		}
	}
}

// TestOverlappingCIsDoNotGate: the same 10% median shift as above does
// not gate when the samples spread so far that the two 95% CIs overlap —
// two runs of a noisy host, not evidence of a regression.
func TestOverlappingCIsDoNotGate(t *testing.T) {
	const name = "BenchmarkRetireGroup/group"
	oldS := snap(runs(name, "ns/instr", 20, 14, 26, 17, 23)...)
	newS := snap(runs(name, "ns/instr", 22, 15, 29, 19, 25)...)
	deltas, _, _ := compare(oldS, newS, 5)
	d := find(t, deltas, name, "ns/instr")
	if d.Pct != 10 {
		t.Fatalf("median shift %.2f%%, want 10%%", d.Pct)
	}
	if !d.OldCI.Overlaps(d.NewCI) {
		t.Fatalf("CIs %v and %v do not overlap", d.OldCI, d.NewCI)
	}
	if d.Regression {
		t.Errorf("overlapping CIs gated: %+v", d)
	}
	// The same medians with tight samples do gate.
	oldS = snap(runs(name, "ns/instr", 20, 20.1, 19.9, 20, 20)...)
	newS = snap(runs(name, "ns/instr", 22, 22.1, 21.9, 22, 22)...)
	deltas, _, _ = compare(oldS, newS, 5)
	if d := find(t, deltas, name, "ns/instr"); !d.Regression {
		t.Errorf("disjoint CIs did not gate: %+v", d)
	}
}

// TestAllocRegressionGates: a formerly allocation-free benchmark that
// now allocates gates (0 -> n has no finite percentage), and so does
// growth beyond the threshold; growth within it and fewer allocations
// do not.
func TestAllocRegressionGates(t *testing.T) {
	const name = "BenchmarkRetireBatch"
	oldS := snap(runs(name, "allocs/op", 0, 0, 0, 0, 0)...)
	deltas, _, _ := compare(oldS, snap(runs(name, "allocs/op", 3, 3, 3, 3, 3)...), 5)
	d := find(t, deltas, name, "allocs/op")
	if !d.Regression || !math.IsInf(d.Pct, 1) {
		t.Errorf("0 -> 3 allocs/op did not gate: %+v", d)
	}

	oldS = snap(runs(name, "allocs/op", 2894, 2894, 2894, 2894, 2894)...)
	for _, c := range []struct {
		n    float64
		gate bool
	}{{3000, false}, {3100, true}, {100, false}} {
		deltas, _, _ := compare(oldS, snap(runs(name, "allocs/op", c.n, c.n, c.n, c.n, c.n)...), 5)
		if d := find(t, deltas, name, "allocs/op"); d.Regression != c.gate {
			t.Errorf("2894 -> %v allocs/op: regression %v, want %v", c.n, d.Regression, c.gate)
		}
	}
}

// TestGOMAXPROCSSuffixPairs guards the gate against the "-N" suffix go
// test appends on multi-proc machines: a 1-core baseline must pair with
// a 4-core CI run, or the gate would silently compare nothing.
func TestGOMAXPROCSSuffixPairs(t *testing.T) {
	oldS := snap(runs("BenchmarkEncode", "ns/op", 1000, 1000, 1000)...)
	newS := snap(runs("BenchmarkEncode-4", "ns/op", 2000, 2000, 2000)...)
	deltas, onlyOld, onlyNew := compare(oldS, newS, 5)
	if len(onlyOld)+len(onlyNew) != 0 {
		t.Fatalf("suffixed benchmark did not pair: onlyOld=%v onlyNew=%v", onlyOld, onlyNew)
	}
	if d := find(t, deltas, "BenchmarkEncode", "ns/op"); !d.Regression {
		t.Errorf("regression hidden by the GOMAXPROCS suffix: %+v", d)
	}
	// Names whose tail is not a plain integer stay untouched.
	if got := normalizeName("BenchmarkX/pbs=true"); got != "BenchmarkX/pbs=true" {
		t.Errorf("normalizeName mangled %q", got)
	}
	if got := normalizeName("BenchmarkRetireGroup/solo-16"); got != "BenchmarkRetireGroup/solo" {
		t.Errorf("normalizeName(-16) = %q", got)
	}
}

func TestUnpairedBenchmarksNeverGate(t *testing.T) {
	oldS := snap(
		bench("BenchmarkGone", map[string]float64{"ns/op": 1}),
		bench("BenchmarkKept", map[string]float64{"ns/op": 100}),
	)
	newS := snap(
		bench("BenchmarkKept", map[string]float64{"ns/op": 100}),
		bench("BenchmarkNew", map[string]float64{"allocs/op": 1e9}),
	)
	deltas, onlyOld, onlyNew := compare(oldS, newS, 5)
	for _, d := range deltas {
		if d.Bench != "BenchmarkKept" {
			t.Errorf("unpaired benchmark compared: %+v", d)
		}
		if d.Regression {
			t.Errorf("unchanged benchmark gated: %+v", d)
		}
	}
	if len(onlyOld) != 1 || onlyOld[0] != "BenchmarkGone" {
		t.Errorf("onlyOld = %v", onlyOld)
	}
	if len(onlyNew) != 1 || onlyNew[0] != "BenchmarkNew" {
		t.Errorf("onlyNew = %v", onlyNew)
	}
}

// TestUngatedMetricsIgnored: a benchmark gates on one time metric —
// ns/instr or instr/s when it reports one, ns/op otherwise — and on
// allocs/op. B/op, throughput in MB/s and the custom size and
// simulated-machine metrics never gate however far they move.
func TestUngatedMetricsIgnored(t *testing.T) {
	oldS := snap(bench("BenchmarkX", map[string]float64{
		"ns/instr": 20, "ns/op": 100, "IPC": 2.0, "B/op": 1000, "MB/s": 50, "ckpt-bytes": 4096,
	}))
	newS := snap(bench("BenchmarkX", map[string]float64{
		"ns/instr": 20, "ns/op": 100000, "IPC": 0.1, "B/op": 1e9, "MB/s": 1, "ckpt-bytes": 1e9,
	}))
	deltas, _, _ := compare(oldS, newS, 5)
	if len(deltas) != 1 || deltas[0].Metric != "ns/instr" || deltas[0].Regression {
		t.Errorf("deltas = %+v, want one ungated ns/instr comparison", deltas)
	}
}

// TestLoadCommittedBaseline keeps the comparator compatible with the
// snapshot format bench.sh actually writes, via the committed snapshot:
// every benchmark has a sample per run and gates on a time metric and
// allocs/op, and the snapshot compared to itself is regression-free.
func TestLoadCommittedBaseline(t *testing.T) {
	s, err := loadSnapshot(filepath.Join("..", "..", "BENCH_2026-10-20.json"))
	if err != nil {
		t.Fatal(err)
	}
	if s.Date == "" || s.Count < 5 {
		t.Fatalf("snapshot header %+v", s)
	}
	for name, ms := range group(s) {
		g := gated(ms, ms)
		if len(g) != 2 || len(ms[g[0].name]) != s.Count {
			t.Errorf("%s: gated metrics %v, want a time metric and allocs/op with %d samples each", name, g, s.Count)
		}
	}
	deltas, onlyOld, onlyNew := compare(s, s, 5)
	if len(onlyOld)+len(onlyNew) != 0 {
		t.Errorf("self-compare found unpaired benchmarks: %v %v", onlyOld, onlyNew)
	}
	for _, d := range deltas {
		if d.Regression {
			t.Errorf("self-compare regression: %+v", d)
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	empty := filepath.Join(dir, "empty.json")
	if err := os.WriteFile(empty, []byte(`{"date":"x","results":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadSnapshot(empty); err == nil {
		t.Error("empty snapshot accepted")
	}
	if _, err := loadSnapshot(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
}
