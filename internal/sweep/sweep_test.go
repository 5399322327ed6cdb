package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/workloads"
)

// testGrid is a small but representative grid: two workloads, both
// predictors, PBS on and off, capped so the whole sweep stays fast.
func testGrid() Grid {
	return Grid{
		Workloads:  []string{"PI", "Bandit"},
		Predictors: []sim.PredictorKind{sim.PredTournament, sim.PredTAGESCL},
		PBS:        []bool{false, true},
		Seeds:      []uint64{11, 23},
		MaxInstrs:  300_000,
	}
}

func TestGridExpansion(t *testing.T) {
	pts, err := testGrid().Points()
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * 2 * 2 * 2; len(pts) != want {
		t.Fatalf("got %d points, want %d", len(pts), want)
	}
	seen := make(map[Key]bool)
	for _, p := range pts {
		if seen[p.Key] {
			t.Fatalf("duplicate point %v", p)
		}
		seen[p.Key] = true
		if p.Width != 4 || p.Scale != 1 {
			t.Fatalf("defaults not applied: %+v", p)
		}
	}

	// Empty grid: every workload, one default point each.
	pts, err = Grid{}.Points()
	if err != nil {
		t.Fatal(err)
	}
	if want := len(workloads.Names()); len(pts) != want {
		t.Fatalf("empty grid expanded to %d points, want %d", len(pts), want)
	}

	// Scale 0 means 1; a negative scale, unknown workloads and bad
	// widths fail at expansion.
	if pts, err := (Grid{Workloads: []string{"PI"}}).Points(); err != nil || pts[0].Scale != 1 {
		t.Fatalf("scale 0 expanded to %+v (%v), want scale 1", pts, err)
	}
	if _, err := (Grid{Scale: -1}).Points(); err == nil || !strings.Contains(err.Error(), "scale") {
		t.Fatalf("negative scale expanded (%v); want an error naming the scale", err)
	}
	if _, err := (Grid{Workloads: []string{"nope"}}).Points(); err == nil {
		t.Fatal("unknown workload did not fail expansion")
	}
	if _, err := (Grid{Widths: []int{16}}).Points(); err == nil {
		t.Fatal("bad width did not fail expansion")
	}
	if _, err := (Grid{Predictors: []sim.PredictorKind{"psychic"}}).Points(); err == nil {
		t.Fatal("unknown predictor did not fail expansion")
	}
}

func TestGridVariantApplicability(t *testing.T) {
	// Genetic implements neither predication nor CFD (Table I).
	g := Grid{
		Workloads: []string{"DOP", "Genetic"},
		Variants:  []workloads.Variant{workloads.VariantPredicated},
	}
	if _, err := g.Points(); err == nil {
		t.Fatal("inapplicable variant did not fail expansion")
	}
	g.SkipInapplicable = true
	pts, err := g.Points()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 1 || pts[0].Workload != "DOP" {
		t.Fatalf("SkipInapplicable kept %v, want one DOP point", pts)
	}
}

// TestDeterminism checks the core sweep contract: the same grid produces
// bit-identical per-point results at any parallelism, with a per-call or
// a shared program cache.
func TestDeterminism(t *testing.T) {
	grid := testGrid()

	serial := &Engine{} // a program cache per call, one worker
	gridSerial := grid
	gridSerial.Parallel = 1
	want, err := serial.Run(context.Background(), gridSerial)
	if err != nil {
		t.Fatal(err)
	}

	cached := &Engine{Programs: NewProgramCache()} // a shared program cache, wide pool
	gridPar := grid
	gridPar.Parallel = 8
	got, err := cached.Run(context.Background(), gridPar)
	if err != nil {
		t.Fatal(err)
	}

	if len(want) != len(got) {
		t.Fatalf("result counts differ: %d vs %d", len(want), len(got))
	}
	for i := range want {
		w, g := want[i], got[i]
		if w.Point != g.Point {
			t.Fatalf("point %d differs: %v vs %v", i, w.Point, g.Point)
		}
		if w.Sim.Timing != g.Sim.Timing {
			t.Errorf("%v: timing differs:\n  serial   %+v\n  parallel %+v", w.Point, w.Sim.Timing, g.Sim.Timing)
		}
		if w.Sim.Emu != g.Sim.Emu {
			t.Errorf("%v: emu stats differ", w.Point)
		}
		if w.Sim.PBSStats != g.Sim.PBSStats {
			t.Errorf("%v: PBS stats differ", w.Point)
		}
		if !reflect.DeepEqual(w.Sim.Outputs, g.Sim.Outputs) {
			t.Errorf("%v: outputs differ", w.Point)
		}
	}
}

// TestProgramCache checks that a cached program is exactly the program a
// fresh build produces, and that repeated gets share one build.
func TestProgramCache(t *testing.T) {
	cache := NewProgramCache()
	for _, name := range workloads.Names() {
		cached, err := cache.Get(name, 1, workloads.VariantPlain)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := sim.BuildProgram(name, workloads.Params{Scale: 1}, workloads.VariantPlain)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(cached, fresh) {
			t.Errorf("%s: cached program differs from a fresh build", name)
		}
		again, err := cache.Get(name, 1, workloads.VariantPlain)
		if err != nil {
			t.Fatal(err)
		}
		if again != cached {
			t.Errorf("%s: second get built a new program", name)
		}
	}
	// Scale 0 and scale 1 are the same program and share one cache entry.
	a, err := cache.Get("PI", 0, workloads.VariantPlain)
	if err != nil {
		t.Fatal(err)
	}
	b, err := cache.Get("PI", 1, workloads.VariantPlain)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("scale 0 and scale 1 did not share a cache entry")
	}
}

// TestEarlyAbort checks that the first error stops dispatch: with one
// worker and a failing first point, no later point runs.
func TestEarlyAbort(t *testing.T) {
	pts, err := Grid{Workloads: []string{"PI"}, Seeds: []uint64{1, 2, 3, 4, 5}, MaxInstrs: 100_000}.Points()
	if err != nil {
		t.Fatal(err)
	}
	// An unexpandable point: sneak in an unsupported width after
	// expansion, as a stand-in for any mid-sweep failure.
	bad := pts[0]
	bad.Width = 16
	pts = append([]Point{bad}, pts...)

	eng := &Engine{}
	completed := 0
	eng.OnProgress = func(done, total int) { completed = done }
	_, err = eng.RunPoints(context.Background(), pts, 1)
	if err == nil {
		t.Fatal("sweep with a failing point returned nil error")
	}
	if !strings.Contains(err.Error(), "width") {
		t.Fatalf("unexpected error: %v", err)
	}
	if completed != 0 {
		t.Errorf("%d points ran after the first error; dispatch should have stopped", completed)
	}
}

// TestCancel checks that an already-cancelled context aborts before any
// simulation runs.
func TestCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	eng := &Engine{}
	ran := false
	eng.OnProgress = func(done, total int) { ran = true }
	if _, err := eng.Run(ctx, testGrid()); err == nil {
		t.Fatal("cancelled sweep returned nil error")
	}
	if ran {
		t.Error("cancelled sweep still ran points")
	}
}

// TestRecords checks the flattened serialization round-trips the point
// coordinates and headline metrics.
func TestRecords(t *testing.T) {
	eng := &Engine{}
	res, err := eng.Run(context.Background(), Grid{
		Workloads: []string{"PI"},
		PBS:       []bool{true},
		Seeds:     []uint64{11},
		MaxInstrs: 300_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	recs := res.Records()
	if len(recs) != 1 {
		t.Fatalf("got %d records, want 1", len(recs))
	}
	r := recs[0]
	if r.Workload != "PI" || !r.PBS || r.Width != 4 || r.Seed != 11 || r.Variant != "plain" {
		t.Errorf("record coordinates wrong: %+v", r)
	}
	if r.Instructions == 0 || r.Cycles == 0 || r.IPC == 0 {
		t.Errorf("record metrics empty: %+v", r)
	}

	var json strings.Builder
	if err := WriteRecordsJSON(&json, recs); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(json.String(), `"workload": "PI"`) {
		t.Errorf("JSON output missing workload field:\n%s", json.String())
	}
	var csv strings.Builder
	if err := WriteRecordsCSV(&csv, recs); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("CSV has %d lines, want header + 1 row", len(lines))
	}
	if cols := strings.Split(lines[1], ","); len(cols) != len(csvColumns) {
		t.Errorf("CSV row has %d fields, header declares %d", len(cols), len(csvColumns))
	}
}

// TestWriteRecordsJSONMatchesEncoder: the row-at-a-time writer gives
// exactly the bytes of a json.Encoder indenting the whole array — for a
// nil and an empty slice, one row, several rows, sharded aggregate rows
// and a string the encoder escapes.
func TestWriteRecordsJSONMatchesEncoder(t *testing.T) {
	res, err := (&Engine{}).Run(context.Background(), Grid{
		Workloads:  []string{"PI"},
		PBS:        []bool{false, true},
		Seeds:      []uint64{3, 5},
		ShardSeeds: true,
		MaxInstrs:  20_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	sharded := res.Records()
	escaped := sharded[0]
	escaped.Workload = "<PI & \"co\">\u2028"
	for _, tc := range []struct {
		name string
		recs []Record
	}{
		{"nil", nil},
		{"empty", []Record{}},
		{"one row", sharded[:1]},
		{"several rows", sharded[:2]},
		{"sharded", sharded},
		{"escaped", []Record{escaped, sharded[1]}},
	} {
		var want bytes.Buffer
		enc := json.NewEncoder(&want)
		enc.SetIndent("", "  ")
		if err := enc.Encode(tc.recs); err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := WriteRecordsJSON(&got, tc.recs); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("%s: wrote\n%s\nwant\n%s", tc.name, got.Bytes(), want.Bytes())
		}
	}
}

// TestLookupNormalization checks that zero-value Key fields mean the axis
// defaults.
func TestLookupNormalization(t *testing.T) {
	eng := &Engine{}
	res, err := eng.Run(context.Background(), Grid{
		Workloads:  []string{"PI"},
		Predictors: []sim.PredictorKind{sim.PredTAGESCL},
		Widths:     []int{4},
		Seeds:      []uint64{7},
		MaxInstrs:  100_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Zero-value predictor and width resolve to tage-sc-l on the 4-wide core.
	if _, err := res.Get(Key{Workload: "PI", Seed: 7}); err != nil {
		t.Errorf("normalized lookup failed: %v", err)
	}
	if _, err := res.Get(Key{Workload: "PI", Seed: 8}); err == nil {
		t.Error("lookup of a point not in the sweep succeeded")
	}
}

// TestAmbiguousLookup checks that a merged result set holding one key
// under different run parameters refuses the lookup instead of answering
// with whichever point comes first.
func TestAmbiguousLookup(t *testing.T) {
	eng := &Engine{}
	timing, err := eng.Run(context.Background(), Grid{Workloads: []string{"PI"}, Seeds: []uint64{7}, MaxInstrs: 100_000})
	if err != nil {
		t.Fatal(err)
	}
	functional, err := eng.Run(context.Background(), Grid{Workloads: []string{"PI"}, Seeds: []uint64{7}, MaxInstrs: 100_000, SkipTiming: true})
	if err != nil {
		t.Fatal(err)
	}
	merged := append(timing, functional...)
	if _, err := merged.Get(Key{Workload: "PI", Seed: 7}); err == nil || !strings.Contains(err.Error(), "ambiguous") {
		t.Errorf("ambiguous lookup returned %v, want ambiguity error", err)
	}
	// Duplicate identical points stay unambiguous.
	dup := append(timing, timing...)
	if _, err := dup.Get(Key{Workload: "PI", Seed: 7}); err != nil {
		t.Errorf("duplicate identical points failed lookup: %v", err)
	}
}
