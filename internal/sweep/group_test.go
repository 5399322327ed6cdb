package sweep

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"repro/internal/sim"
)

// perturb returns p with the named field (of Point or its embedded Key)
// set to a different value of its type.
func perturb(t *testing.T, p Point, field string) Point {
	t.Helper()
	v := reflect.ValueOf(&p).Elem().FieldByName(field)
	switch v.Kind() {
	case reflect.String:
		v.SetString(v.String() + "x")
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Int:
		v.SetInt(v.Int() + 1)
	case reflect.Uint64:
		v.SetUint(v.Uint() + 1)
	default:
		t.Fatalf("field %s has unhandled kind %s", field, v.Kind())
	}
	return p
}

// pointFields lists every leaf field of Point, the Key's included.
func pointFields() []string {
	var names []string
	pt := reflect.TypeOf(Point{})
	for i := range pt.NumField() {
		f := pt.Field(i)
		if f.Anonymous {
			for j := range f.Type.NumField() {
				names = append(names, f.Type.Field(j).Name)
			}
			continue
		}
		names = append(names, f.Name)
	}
	return names
}

// TestStreamPointKey pins what a stream group may differ in: exactly
// the timing-only axes. Every other field of a point shapes the
// emulated stream or its schedule.
func TestStreamPointKey(t *testing.T) {
	timingOnly := map[string]bool{"Predictor": true, "Width": true, "FilterProb": true}
	base := Point{Key: Key{Workload: "PI", Seed: 3}, Scale: 1, MaxInstrs: 400_000, WarmPrefix: 100_000,
		SampleWindow: 1_000, SamplePeriod: 5_000, SampleWarmup: 500}.normalize()
	for _, f := range pointFields() {
		same := perturb(t, base, f).StreamPoint() == base.StreamPoint()
		if same != timingOnly[f] {
			t.Errorf("%s: points differing only there share a stream: %v, want %v", f, same, timingOnly[f])
		}
	}
}

// TestWarmPointKey pins that a warm group is wider than a stream group:
// the prefix runs functional-only to its own budget, so the warm point
// additionally ignores the sampling schedule, SkipTiming and the
// point's MaxInstrs (past the prefix).
func TestWarmPointKey(t *testing.T) {
	ignored := map[string]bool{"Predictor": true, "Width": true, "FilterProb": true,
		"SampleWindow": true, "SamplePeriod": true, "SampleWarmup": true, "SampleFuncWarm": true,
		"SkipTiming": true, "MaxInstrs": true}
	base := Point{Key: Key{Workload: "PI", Seed: 3}, Scale: 1, MaxInstrs: 400_000, WarmPrefix: 100_000,
		SampleWindow: 1_000, SamplePeriod: 5_000, SampleWarmup: 500}.normalize()
	want, ok := base.WarmPoint()
	if !ok {
		t.Fatal("warm prefix reuse unexpectedly skipped")
	}
	for _, f := range pointFields() {
		got, ok := perturb(t, base, f).WarmPoint()
		if f == "Seeds" {
			if ok {
				t.Error("an aggregate point has a warm point")
			}
			continue
		}
		if same := ok && got == want; same != ignored[f] {
			t.Errorf("%s: points differing only there share a warm point: %v, want %v", f, same, ignored[f])
		}
	}
}

// TestBatchStreamGroups checks the partition: groups follow the
// dispatch order of their first runs, list their runs in dispatch
// order, and collect exactly the runs whose points share a StreamPoint.
func TestBatchStreamGroups(t *testing.T) {
	pi := Point{Key: Key{Workload: "PI", Seed: 1}, MaxInstrs: 50_000}
	pts := []Point{
		pi,
		perturb(t, pi, "Seed"),
		{Key: Key{Workload: "PI", Seed: 1, Predictor: sim.PredTournament, Width: 8, FilterProb: true}, MaxInstrs: 50_000},
		perturb(t, pi, "PBS"),
		{Key: Key{Workload: "PI", Seed: 2, Width: 8}, MaxInstrs: 50_000},
		{Key: Key{Workload: "PI", Seeds: MakeSeedSet([]uint64{2, 1})}, MaxInstrs: 50_000},
	}
	b, err := NewBatch(pts)
	if err != nil {
		t.Fatal(err)
	}
	// The aggregate's shards (runs 5 and 6, seeds 2 then 1) join the
	// seed-2 and seed-1 groups.
	want := [][]int{{0, 2, 6}, {1, 4, 5}, {3}}
	if got := b.Groups(); !reflect.DeepEqual(got, want) {
		t.Errorf("stream groups %v, want %v", got, want)
	}
}

// TestSplitGroupsKeepsPoolBusy: grouping never leaves a worker idle
// that solo runs would have used. A one-workload, two-predictor grid
// is one stream group; at Parallel 2 it runs as two jobs.
func TestSplitGroupsKeepsPoolBusy(t *testing.T) {
	pts, err := Grid{Workloads: []string{"PI"}, Predictors: []sim.PredictorKind{sim.PredTAGESCL, sim.PredTournament},
		MaxInstrs: 50_000}.Points()
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBatch(pts)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.Groups(); !reflect.DeepEqual(got, [][]int{{0, 1}}) {
		t.Fatalf("stream groups %v, want one group of both runs", got)
	}
	for _, tc := range []struct {
		parallel int
		want     [][]int
	}{
		{1, [][]int{{0, 1}}},
		{2, [][]int{{0}, {1}}},
		{8, [][]int{{0}, {1}}},
	} {
		if got := SplitGroups(b.Groups(), tc.parallel); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("parallel %d: jobs %v, want %v", tc.parallel, got, tc.want)
		}
	}
	// Halving the largest group first keeps dispatch order.
	if got, want := SplitGroups([][]int{{0, 1, 2, 3}, {4}}, 4), [][]int{{0}, {1}, {2, 3}, {4}}; !reflect.DeepEqual(got, want) {
		t.Errorf("split jobs %v, want %v", got, want)
	}
}

// TestGroupProgressCountsMembers: a stream group of two members
// reports progress once per member, and the member that follows the
// group's lead matches its solo run.
func TestGroupProgressCountsMembers(t *testing.T) {
	g := Grid{Workloads: []string{"PI"}, Seeds: []uint64{4}, MaxInstrs: 80_000, Parallel: 1,
		Predictors: []sim.PredictorKind{sim.PredTAGESCL, sim.PredTournament}}
	var done, total int
	eng := &Engine{OnProgress: func(d, n int) { done, total = d, n }}
	res, err := eng.Run(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if done != 2 || total != 2 {
		t.Errorf("progress ended at %d/%d, want 2/2", done, total)
	}
	solo, err := (&Engine{}).Run(context.Background(), Grid{Workloads: []string{"PI"}, Seeds: []uint64{4}, MaxInstrs: 80_000,
		Predictors: []sim.PredictorKind{sim.PredTournament}})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res[1].Sim, solo[0].Sim) {
		t.Error("the following member differs from its solo run")
	}
}

// TestGroupedRecordsMatchSolo: grouped execution writes the records a
// batch of solo runs writes, byte for byte, at any parallelism — over
// every timing-only axis, seed-sharded aggregates and warm-prefix
// forks.
func TestGroupedRecordsMatchSolo(t *testing.T) {
	g := Grid{
		Workloads:  []string{"PI", "Bandit"},
		Predictors: []sim.PredictorKind{sim.PredTAGESCL, sim.PredTournament},
		Widths:     []int{4, 8},
		FilterProb: []bool{false, true},
		PBS:        []bool{true},
		Seeds:      []uint64{3, 5},
		ShardSeeds: true,
		WarmPrefix: 20_000,
		MaxInstrs:  60_000,
	}
	pts, err := g.Points()
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBatch(pts)
	if err != nil {
		t.Fatal(err)
	}
	progs := NewProgramCache()
	for r, run := range b.Runs() {
		res, err := runGroup(context.Background(), progs, []Point{run.Point})
		if err != nil {
			t.Fatal(err)
		}
		b.Put(r, res[0])
	}
	want := recordsJSON(t, b.Results())
	for _, parallel := range []int{1, 2, 8} {
		res, err := (&Engine{}).RunPoints(context.Background(), pts, parallel)
		if err != nil {
			t.Fatal(err)
		}
		if got := recordsJSON(t, res); !bytes.Equal(got, want) {
			t.Errorf("parallel %d: grouped records differ from solo runs", parallel)
		}
	}
}

func recordsJSON(t *testing.T, res Results) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteRecordsJSON(&buf, res.Records()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
