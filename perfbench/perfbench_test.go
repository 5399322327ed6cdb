package main

import "testing"

// TestSelfTimeAddsUp checks self time on a synthetic span tree: root
// [0,100] holds a [10,40] (with a folded leaf b [15,25]) and c [50,90].
// Self times are root 30, a 20, b 10, c 40, and they sum to the root.
func TestSelfTimeAddsUp(t *testing.T) {
	tr := NewTracer(10)
	k := tr.Track()
	k.BeginAt(k.Agg("root"), "root", 0)
	k.BeginAt(k.Agg("a"), "a", 10)
	k.Leaf(k.Agg("b"), 15, 25)
	k.EndAt(40)
	k.BeginAt(k.Agg("c"), "c", 50)
	k.EndAt(90)
	k.EndAt(100)

	aggs := tr.Aggs()
	var sum int64
	for name, want := range map[string]int64{"root": 30, "a": 20, "b": 10, "c": 40} {
		if got := aggs[name].Self; got != want {
			t.Errorf("%s self = %d, want %d", name, got, want)
		}
		sum += aggs[name].Self
	}
	if sum != aggs["root"].Total {
		t.Errorf("self times sum to %d, want the root's %d", sum, aggs["root"].Total)
	}
	spans := k.spans
	if len(spans) != 3 || spans[0].Parent != -1 || spans[1].Parent != 0 || spans[2].Parent != 0 || spans[1].End != 40 {
		t.Errorf("retained spans = %+v, want root, a and c with root as parent", spans)
	}
}

// TestSmoke runs every workload at minimum length, untraced and traced,
// and checks that all checks pass, that every metric BENCHMARK.json
// names is emitted with its unit, that end-to-end metrics are never
// zero, and that some workload measures each per-layer metric.
func TestSmoke(t *testing.T) {
	const specPath = "../BENCHMARK.json"
	sp, err := loadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	measured := map[string]bool{}
	for _, w := range sp.Workloads {
		for _, traced := range []bool{false, true} {
			res, err := benchmark(w.Name, 1, 0, traced, specPath, dir)
			if err != nil {
				t.Fatalf("%s traced=%t: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%t: correct=%t attempted=%d failed=%d", w.Name, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := sp.EndToEnd
			if traced {
				want = sp.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%t: %d metrics, want %d", w.Name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%t: %s missing", w.Name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s traced=%t: %s unit %q, want %q", w.Name, traced, m.Name, got.Unit, m.Unit)
				case !traced && !(got.Value > 0):
					t.Errorf("%s: end-to-end %s = %g, want > 0", w.Name, m.Name, got.Value)
				}
				if traced && res.measured[m.Name] {
					measured[m.Name] = true
				}
			}
		}
	}
	for _, m := range sp.PerLayer {
		if !measured[m.Name] {
			t.Errorf("no workload measures per-layer metric %s", m.Name)
		}
	}
}
