package experiments

import "testing"

// TestQuickExperiments runs every artifact at two seeds and checks that
// its dataset measures each of its paper quantities. Figures 8 and 9
// and Table III cost seconds each even at two seeds; BenchmarkArtifact
// and pbstables run them.
func TestQuickExperiments(t *testing.T) {
	opt := Options{Scale: 1, Seeds: []uint64{11, 23}}
	slow := map[string]bool{"fig8": true, "fig9": true, "table3": true}
	for _, a := range Artifacts {
		if slow[a.ID] {
			continue
		}
		d, err := a.Run(opt)
		if err != nil {
			t.Fatalf("%s: %v", a.ID, err)
		}
		t.Log(d)
		m := d.Measured()
		for _, q := range a.Paper {
			if _, ok := m[q.Name]; !ok {
				t.Errorf("%s measures no %s", a.ID, q.Name)
			}
		}
	}
}
