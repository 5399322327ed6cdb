package sweep

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/workloads"
)

// TestKeyStringCanonical checks that String is a normalized, injective
// identity: default-valued and spelled-out keys agree, distinct keys
// disagree, and every axis appears in the form.
func TestKeyStringCanonical(t *testing.T) {
	zero := Key{Workload: "PI", Seed: 1}
	full := Key{Workload: "PI", Predictor: sim.PredTAGESCL, Width: 4, Seed: 1, Variant: workloads.VariantPlain}
	if zero.String() != full.String() {
		t.Errorf("defaulted and spelled-out keys differ:\n %s\n %s", zero, full)
	}
	want := "workload=PI,predictor=tage-sc-l,pbs=false,width=4,seed=1,variant=plain,filter_prob=false"
	if got := zero.String(); got != want {
		t.Errorf("canonical form = %q, want %q", got, want)
	}

	distinct := []Key{
		{Workload: "PI", Seed: 1},
		{Workload: "PI", Seed: 2},
		{Workload: "DOP", Seed: 1},
		{Workload: "PI", Seed: 1, PBS: true},
		{Workload: "PI", Seed: 1, Width: 8},
		{Workload: "PI", Seed: 1, Predictor: sim.PredTournament},
		{Workload: "PI", Seed: 1, FilterProb: true},
		{Workload: "PI", Seed: 1, Variant: workloads.VariantPredicated},
		{Workload: "PI", Seeds: MakeSeedSet([]uint64{1, 2})},
		{Workload: "PI", Seeds: MakeSeedSet([]uint64{2, 1})},
	}
	seen := make(map[string]Key, len(distinct))
	for _, k := range distinct {
		s := k.String()
		if prev, dup := seen[s]; dup {
			t.Errorf("keys %+v and %+v share canonical form %q", prev, k, s)
		}
		seen[s] = k
	}
}

// TestPointCanonical checks that run parameters extend the identity: a
// warm-forked or truncated run never shares a canonical form (and thus
// a store address) with a cold full run of the same key.
func TestPointCanonical(t *testing.T) {
	base := Point{Key: Key{Workload: "PI", Seed: 1}}
	variants := []Point{
		base,
		{Key: base.Key, Scale: 2},
		{Key: base.Key, SkipTiming: true},
		{Key: base.Key, MaxInstrs: 1000},
		{Key: base.Key, WarmPrefix: 500},
		{Key: base.Key, CaptureProb: true},
		{Key: base.Key, SampleWindow: 100, SamplePeriod: 1000},
		{Key: base.Key, SampleWindow: 100, SamplePeriod: 1000, SampleWarmup: 50},
		{Key: base.Key, SampleWindow: 100, SamplePeriod: 1000, SampleFuncWarm: true},
	}
	seen := make(map[string]Point, len(variants))
	for _, p := range variants {
		c := p.Canonical()
		if prev, dup := seen[c]; dup {
			t.Errorf("points %+v and %+v share canonical form %q", prev, p, c)
		}
		seen[c] = p
	}
	if base.Canonical() != (Point{Key: base.Key, Scale: 1}).Canonical() {
		t.Error("scale 0 and scale 1 should normalize to one canonical form")
	}
}

// TestPointJSONRoundTrip checks the wire form: encoding a normalized
// point and decoding it back yields the identical point, including
// aggregate (multi-seed) points and every run parameter.
func TestPointJSONRoundTrip(t *testing.T) {
	pts := []Point{
		{Key: Key{Workload: "PI", Seed: 1}},
		{Key: Key{Workload: "DOP", Predictor: sim.PredTournament, PBS: true, Width: 8, Seed: 7}},
		{Key: Key{Workload: "MC-integ", Seed: 3, FilterProb: true, Variant: workloads.VariantCFD}},
		{Key: Key{Workload: "Genetic", Seeds: MakeSeedSet([]uint64{11, 23, 37})}},
		{Key: Key{Workload: "PI", Seed: 5}, Scale: 3, SkipTiming: true, MaxInstrs: 123456, WarmPrefix: 1000},
		{Key: Key{Workload: "PI", Seed: 9}, SampleWindow: 10007, SamplePeriod: 50021, SampleWarmup: 20011, SampleFuncWarm: true},
	}
	for _, p := range pts {
		p = p.normalize()
		data, err := json.Marshal(p)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		var back Point
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if back.normalize() != p {
			t.Errorf("round trip changed the point:\n sent %+v\n got  %+v\n wire %s", p, back.normalize(), data)
		}
		// The canonical identity must survive the wire too.
		if back.Canonical() != p.Canonical() {
			t.Errorf("round trip changed the canonical form: %q vs %q", p.Canonical(), back.Canonical())
		}
	}
}

// TestGridJSONRoundTrip pins the spec-file format: a grid round-trips
// through its JSON encoding unchanged.
func TestGridJSONRoundTrip(t *testing.T) {
	g := Grid{
		Workloads:  []string{"PI", "DOP"},
		Predictors: []sim.PredictorKind{sim.PredTAGESCL, sim.PredTournament},
		PBS:        []bool{false, true},
		Widths:     []int{4, 8},
		Seeds:      []uint64{11, 23},
		MaxInstrs:  100_000,
		WarmPrefix: 10_000,
		ShardSeeds: true,
	}
	data, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	var back Grid
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	a, err := g.Points()
	if err != nil {
		t.Fatal(err)
	}
	b, err := back.Points()
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("expansion sizes differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("point %d differs after round trip: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestGridSpecKeepsSyncTimingKey: spec files written when "sync_timing"
// still chose the timing path must keep parsing under the strict
// decoding pbsweep applies, and expand exactly as without the key.
func TestGridSpecKeepsSyncTimingKey(t *testing.T) {
	decode := func(spec string) Grid {
		t.Helper()
		dec := json.NewDecoder(strings.NewReader(spec))
		dec.DisallowUnknownFields()
		var g Grid
		if err := dec.Decode(&g); err != nil {
			t.Fatal(err)
		}
		return g
	}
	a, err := decode(`{"workloads": ["PI"], "seeds": [11, 23], "sync_timing": true}`).Points()
	if err != nil {
		t.Fatal(err)
	}
	b, err := decode(`{"workloads": ["PI"], "seeds": [11, 23]}`).Points()
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("expansion sizes differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("point %d: %s vs %s", i, a[i], b[i])
		}
	}
}
