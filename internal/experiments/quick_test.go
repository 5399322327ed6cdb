package experiments

import (
	"testing"

	"repro/internal/randtest"
	"repro/internal/rng"
	"repro/internal/sweep"
	"repro/internal/workloads"
)

// TestQuickExperiments runs every artifact as one plan at one seed and
// checks that each dataset measures each of its paper quantities.
func TestQuickExperiments(t *testing.T) {
	opt := Options{Scale: 1, Seeds: []uint64{11}}
	ds, err := Run(opt, Artifacts)
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range Artifacts {
		t.Log(ds[i])
		m := ds[i].Measured()
		for _, q := range a.Paper {
			if _, ok := m[q.Name]; !ok {
				t.Errorf("%s measures no %s", a.ID, q.Name)
			}
		}
	}
}

// TestPaperPlan checks the whole paper's plan at two seeds without
// simulating it: no point appears twice, none is a seed-sharded
// aggregate (its shards would run beside equal plain points), and every
// Figure 8 point shares its stream with a Figure 7 point, so Figure 8
// adds schedule passes to Figure 7's stream groups and no emulation.
func TestPaperPlan(t *testing.T) {
	pts, own, err := plan(Options{Scale: 1, Seeds: []uint64{11, 23}}, Artifacts)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[sweep.Point]bool)
	for _, p := range pts {
		if seen[p] {
			t.Errorf("%s is planned twice", p)
		}
		seen[p] = true
		if p.Sharded() {
			t.Errorf("%s is an aggregate point", p)
		}
	}
	var fig7, fig8 []int
	for i, a := range Artifacts {
		switch a.ID {
		case "fig7":
			fig7 = own[i]
		case "fig8":
			fig8 = own[i]
		}
	}
	streams := make(map[sweep.Point]bool) // Figure 7's streams
	for _, j := range fig7 {
		streams[pts[j].StreamPoint()] = true
	}
	if len(fig8) == 0 {
		t.Fatal("fig8 plans no point")
	}
	for _, j := range fig8 {
		if !streams[pts[j].StreamPoint()] {
			t.Errorf("fig8 point %s shares no fig7 point's stream", pts[j])
		}
	}
	b, err := sweep.NewBatch(pts)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d runs in %d stream groups", len(b.Runs()), len(b.Groups()))
}

// TestSummarizeAllMatchesSerial checks Table III's battery pool: every
// stream's summary lands in its own slot and equals a serial
// randtest.Summarize over the same values, rank-uniformized streams
// included.
func TestSummarizeAllMatchesSerial(t *testing.T) {
	r := rng.New(7)
	var streams []valueStream
	for i := range 9 {
		vals := make([]float64, 400+50*i)
		for k := range vals {
			vals[k] = r.Float64()
			if i%3 == 0 {
				vals[k] *= vals[k] // skewed, so summaries differ between streams
			}
		}
		w := &workloads.Workload{Name: "synthetic"}
		if i%2 == 0 {
			w.Uniformize = func(v float64) float64 { return v }
		}
		streams = append(streams, valueStream{w, vals})
	}
	got := summarizeAll(streams)
	for i, s := range streams {
		if want := randtest.Summarize(uniformize(s.w, s.vals)); got[i] != want {
			t.Errorf("stream %d: pool summary %+v, serial %+v", i, got[i], want)
		}
	}
}
