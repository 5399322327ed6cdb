package sweep

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sim"
)

// mixedPoints concatenates plain, sharded, sampled and warm-prefix
// grids into one point list, ending on a one-seed aggregate (whose
// shard row and aggregate row both build from a single run).
func mixedPoints(t *testing.T) []Point {
	t.Helper()
	grids := []Grid{
		{Workloads: []string{"PI"}, Seeds: []uint64{11}, MaxInstrs: 100_000},
		{Workloads: []string{"Bandit"}, Seeds: []uint64{3, 5, 7}, ShardSeeds: true, PBS: []bool{true}, MaxInstrs: 100_000},
		{Workloads: []string{"PI"}, Seeds: []uint64{2}, MaxInstrs: 300_000,
			SampleWindow: 10_007, SamplePeriod: 50_021, SampleWarmup: 20_011},
		{Workloads: []string{"PI"}, Seeds: []uint64{11}, Predictors: []sim.PredictorKind{sim.PredTAGESCL, sim.PredTournament},
			WarmPrefix: 20_000, MaxInstrs: 80_000},
		{Workloads: []string{"PI"}, Seeds: []uint64{9}, ShardSeeds: true, MaxInstrs: 100_000},
	}
	var pts []Point
	for _, g := range grids {
		p, err := g.Points()
		if err != nil {
			t.Fatal(err)
		}
		pts = append(pts, p...)
	}
	if !pts[len(pts)-1].Sharded() {
		t.Fatal("a one-seed ShardSeeds grid did not expand to an aggregate point")
	}
	return pts
}

// TestBatchLayout checks that a Batch fed run results in any order
// reproduces the engine's output: every row position holds exactly the
// record Results.Records puts there, Put reports the rows each result
// completes, and Results equals the engine's.
func TestBatchLayout(t *testing.T) {
	pts := mixedPoints(t)
	progs := NewProgramCache()
	want, err := (&Engine{Programs: progs}).RunPoints(context.Background(), pts, 2)
	if err != nil {
		t.Fatal(err)
	}
	recs := want.Records()

	b, err := NewBatch(pts)
	if err != nil {
		t.Fatal(err)
	}
	if b.Rows() != len(recs) {
		t.Fatalf("batch lays out %d rows, Records has %d", b.Rows(), len(recs))
	}
	if got := len(b.Points()); got != len(pts) {
		t.Fatalf("batch holds %d points, want %d", got, len(pts))
	}
	for pos := range b.Rows() {
		if len(b.Needs(pos)) == 0 {
			t.Fatalf("row %d needs no runs before any result", pos)
		}
		if _, ok := b.Record(pos); ok {
			t.Fatalf("row %d has a record before any result", pos)
		}
	}

	// Feed the runs last to first, each simulated alone, so every
	// aggregate completes on its first shard.
	runs := b.Runs()
	completions := make([]int, b.Rows())
	for r := len(runs) - 1; r >= 0; r-- {
		ru := runs[r]
		if ru.Point.Sharded() {
			t.Fatalf("run %d is an aggregate point %s", r, ru.Point)
		}
		if recs[ru.Row].Seed != ru.Point.Seed || recs[ru.Row].Aggregate {
			t.Fatalf("run %d (%s) sits at row %d, which holds %+v", r, ru.Point, ru.Row, recs[ru.Row])
		}
		res, err := runGroup(context.Background(), progs, []Point{ru.Point})
		if err != nil {
			t.Fatal(err)
		}
		rows := b.Put(r, res[0])
		if len(rows) == 0 || rows[0] != ru.Row {
			t.Fatalf("Put(%d) completed rows %v, want its own row %d first", r, rows, ru.Row)
		}
		for _, pos := range rows[1:] {
			if !recs[pos].Aggregate {
				t.Fatalf("Put(%d) completed row %d, which is not an aggregate row", r, pos)
			}
		}
		for _, pos := range rows {
			completions[pos]++
		}
	}
	for pos, n := range completions {
		if n != 1 {
			t.Errorf("row %d completed %d times, want once", pos, n)
		}
	}

	for pos, want := range recs {
		if need := b.Needs(pos); len(need) != 0 {
			t.Errorf("row %d still needs runs %v", pos, need)
		}
		got, ok := b.Record(pos)
		if !ok || !reflect.DeepEqual(got, want) {
			t.Errorf("row %d: got %+v (ok=%v), want %+v", pos, got, ok, want)
		}
	}
	if !reflect.DeepEqual(b.Results(), want) {
		t.Error("Batch.Results differs from the engine's results")
	}
}

// TestBatchPartialResults checks that an unfinished batch reports only
// its complete points: an aggregate missing one shard is absent, and
// its aggregate row needs exactly that shard.
func TestBatchPartialResults(t *testing.T) {
	pts := mixedPoints(t)[:2] // the plain point, then the 3-seed aggregate
	progs := NewProgramCache()
	b, err := NewBatch(pts)
	if err != nil {
		t.Fatal(err)
	}
	runs := b.Runs()
	if len(runs) != 4 || b.Rows() != 5 {
		t.Fatalf("got %d runs and %d rows, want 4 and 5", len(runs), b.Rows())
	}
	for r := range runs[:3] { // all but the last shard
		res, err := runGroup(context.Background(), progs, []Point{runs[r].Point})
		if err != nil {
			t.Fatal(err)
		}
		b.Put(r, res[0])
	}
	got := b.Results()
	if len(got) != 1 || got[0].Sim == nil || got[0].Point != pts[0].normalize() {
		t.Fatalf("partial results %+v, want only the plain point", got)
	}
	if need := b.Needs(4); !reflect.DeepEqual(need, []int{3}) {
		t.Errorf("aggregate row needs %v, want the missing shard [3]", need)
	}
	if _, ok := b.Record(4); ok {
		t.Error("aggregate row has a record before its last shard")
	}
}

func TestBatchRejectsBadSeedSets(t *testing.T) {
	both := Point{Key: Key{Workload: "PI", Seed: 7, Seeds: MakeSeedSet([]uint64{1, 2})}}
	malformed := Point{Key: Key{Workload: "PI", Seeds: "1,x"}}
	for _, tc := range []struct {
		p    Point
		want string
	}{
		{both, "sets both Seed and Seeds"},
		{malformed, "malformed seed set"},
	} {
		pts := []Point{{Key: Key{Workload: "PI", Seed: 1}}, tc.p}
		if _, err := NewBatch(pts); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("NewBatch(%s) = %v, want an error containing %q", tc.p, err, tc.want)
		}
		if _, err := (&Engine{}).RunPoints(context.Background(), pts, 1); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("RunPoints(%s) = %v, want an error containing %q", tc.p, err, tc.want)
		}
	}
}
