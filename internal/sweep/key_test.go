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

// TestPointCanonicalPinned pins Canonical's exact bytes: they are the
// preimage of every result address in the sweep service's store, so a
// changed byte orphans every stored result. The strings were recorded
// from the fmt-based formatter Canonical replaced.
func TestPointCanonicalPinned(t *testing.T) {
	cases := []struct {
		p    Point
		want string
	}{
		{Point{Key: Key{Workload: "PI", Seed: 1}},
			"workload=PI,predictor=tage-sc-l,pbs=false,width=4,seed=1,variant=plain,filter_prob=false,scale=1,skip_timing=false,capture_prob=false,max_instrs=0,warm_prefix=0"},
		{Point{Key: Key{Workload: "Genetic", Seeds: MakeSeedSet([]uint64{11, 23, 37})}, MaxInstrs: 400000, WarmPrefix: 100000},
			"workload=Genetic,predictor=tage-sc-l,pbs=false,width=4,seeds=11,23,37,variant=plain,filter_prob=false,scale=1,skip_timing=false,capture_prob=false,max_instrs=400000,warm_prefix=100000"},
		{Point{Key: Key{Workload: "MC-integ", Seed: 3, Variant: workloads.VariantCFD}},
			"workload=MC-integ,predictor=tage-sc-l,pbs=false,width=4,seed=3,variant=cfd,filter_prob=false,scale=1,skip_timing=false,capture_prob=false,max_instrs=0,warm_prefix=0"},
		{Point{Key: Key{Workload: "Bandit", Seed: 18446744073709551615, Variant: workloads.VariantPredicated}, Scale: 3},
			"workload=Bandit,predictor=tage-sc-l,pbs=false,width=4,seed=18446744073709551615,variant=predicated,filter_prob=false,scale=3,skip_timing=false,capture_prob=false,max_instrs=0,warm_prefix=0"},
		{Point{Key: Key{Workload: "DOP", Seed: 7, PBS: true, FilterProb: true}},
			"workload=DOP,predictor=tage-sc-l,pbs=true,width=4,seed=7,variant=plain,filter_prob=true,scale=1,skip_timing=false,capture_prob=false,max_instrs=0,warm_prefix=0"},
		{Point{Key: Key{Workload: "Greeks", Predictor: sim.PredTournament, Seed: 2}, SkipTiming: true, CaptureProb: true},
			"workload=Greeks,predictor=tournament,pbs=false,width=4,seed=2,variant=plain,filter_prob=false,scale=1,skip_timing=true,capture_prob=true,max_instrs=0,warm_prefix=0"},
		{Point{Key: Key{Workload: "Swaptions", Width: 8, Seed: 5}, MaxInstrs: 50000},
			"workload=Swaptions,predictor=tage-sc-l,pbs=false,width=8,seed=5,variant=plain,filter_prob=false,scale=1,skip_timing=false,capture_prob=false,max_instrs=50000,warm_prefix=0"},
		{Point{Key: Key{Workload: "Photon", Seed: 11, PBS: true}, WarmPrefix: 100000, MaxInstrs: 400000},
			"workload=Photon,predictor=tage-sc-l,pbs=true,width=4,seed=11,variant=plain,filter_prob=false,scale=1,skip_timing=false,capture_prob=false,max_instrs=400000,warm_prefix=100000"},
		{Point{Key: Key{Workload: "PI", Seed: 9}, Scale: 16, SampleWindow: 10007, SamplePeriod: 200003, SampleWarmup: 50021},
			"workload=PI,predictor=tage-sc-l,pbs=false,width=4,seed=9,variant=plain,filter_prob=false,scale=16,skip_timing=false,capture_prob=false,max_instrs=0,warm_prefix=0,sample_window=10007,sample_period=200003,sample_warmup=50021,sample_func_warm=false"},
		{Point{Key: Key{Workload: "DOP", Seed: 9, Width: 8}, SampleWindow: 10007, SamplePeriod: 50021, SampleWarmup: 20011, SampleFuncWarm: true},
			"workload=DOP,predictor=tage-sc-l,pbs=false,width=8,seed=9,variant=plain,filter_prob=false,scale=1,skip_timing=false,capture_prob=false,max_instrs=0,warm_prefix=0,sample_window=10007,sample_period=50021,sample_warmup=20011,sample_func_warm=true"},
	}
	for _, c := range cases {
		if got := c.p.Canonical(); got != c.want {
			t.Errorf("%s: Canonical =\n %q\nwant\n %q", c.p, got, c.want)
		}
		// Key.String is the Canonical prefix.
		if got := c.p.Key.String(); !strings.HasPrefix(c.want, got+",scale=") {
			t.Errorf("%s: Key.String %q is not the prefix of %q", c.p, got, c.want)
		}
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
