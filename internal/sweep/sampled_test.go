package sweep

import (
	"context"
	"reflect"
	"testing"
)

// sampledGrid is a small sampled-timing sweep: two seeds, sampling
// axes on, functional warming across the gaps.
func sampledGrid() Grid {
	return Grid{
		Workloads:      []string{"PI"},
		Seeds:          []uint64{1, 2},
		SampleWindow:   10_007,
		SamplePeriod:   50_021,
		SampleWarmup:   20_011,
		SampleFuncWarm: true,
	}
}

func TestGridSampleValidation(t *testing.T) {
	g := sampledGrid()
	pts, err := g.Points()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		sc, ok := p.SampleConfig()
		if !ok {
			t.Fatalf("%s: sampling axes not propagated", p)
		}
		if sc.Window != g.SampleWindow || sc.Period != g.SamplePeriod || sc.Warmup != g.SampleWarmup || !sc.FuncWarm {
			t.Fatalf("%s: schedule %+v does not match grid", p, sc)
		}
	}

	bad := g
	bad.SampleWindow = 0
	if _, err := bad.Points(); err == nil {
		t.Error("zero sample_window with a period accepted")
	}
	bad = g
	bad.SamplePeriod = 0
	if _, err := bad.Points(); err == nil {
		t.Error("sample_window without sample_period accepted")
	}
	bad = g
	bad.SkipTiming = true
	if _, err := bad.Points(); err == nil {
		t.Error("sampling with skip_timing accepted")
	}
}

// TestSampledSweepDeterminism extends the core sweep contract to
// sampled points: the same sampled grid produces bit-identical
// estimates at parallelism 1 and 8, with a per-call or a shared program
// cache.
func TestSampledSweepDeterminism(t *testing.T) {
	grid := sampledGrid()

	serial := &Engine{}
	gridSerial := grid
	gridSerial.Parallel = 1
	want, err := serial.Run(context.Background(), gridSerial)
	if err != nil {
		t.Fatal(err)
	}

	cached := &Engine{Programs: NewProgramCache()}
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
		if w.Sim.Sampled == nil || g.Sim.Sampled == nil {
			t.Fatalf("%v: sampled point missing its estimate", w.Point)
		}
		if !reflect.DeepEqual(w.Sim.Sampled, g.Sim.Sampled) {
			t.Errorf("%v: estimates differ:\n  serial   %+v\n  parallel %+v", w.Point, w.Sim.Sampled, g.Sim.Sampled)
		}
		if w.Sim.Timing != g.Sim.Timing {
			t.Errorf("%v: timing counters differ across parallelism", w.Point)
		}
	}
}

// TestSampledRecords checks the flattening: a sampled row's IPC/MPKI
// are the estimate means, the CI columns carry the windows' interval,
// and the schedule is spelled out on the row.
func TestSampledRecords(t *testing.T) {
	res, err := (&Engine{}).Run(context.Background(), sampledGrid())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		rec := r.Record()
		e := r.Sim.Sampled
		if e == nil {
			t.Fatalf("%v: no estimate", r.Point)
		}
		if rec.IPC != e.IPC.Mean || rec.MPKI != e.MPKI.Mean {
			t.Errorf("%v: record IPC/MPKI %v/%v, want estimate means %v/%v",
				r.Point, rec.IPC, rec.MPKI, e.IPC.Mean, e.MPKI.Mean)
		}
		if rec.IPCCILo != e.IPC.CI.Lo || rec.IPCCIHi != e.IPC.CI.Hi {
			t.Errorf("%v: record CI [%v, %v] != estimate CI %v", r.Point, rec.IPCCILo, rec.IPCCIHi, e.IPC.CI)
		}
		if rec.SampleWindows != e.Windows {
			t.Errorf("%v: record windows %d != estimate %d", r.Point, rec.SampleWindows, e.Windows)
		}
		if rec.SampleWindow != 10_007 || rec.SamplePeriod != 50_021 || rec.SampleWarmup != 20_011 || !rec.SampleFuncWarm {
			t.Errorf("%v: schedule columns mangled: %+v", r.Point, rec)
		}
	}
}

// TestSampledWarmPoint: the warm prefix runs functional-only, so a
// sampled point forks from the same warm point as its full-timing twin,
// and the warm point itself never samples.
func TestSampledWarmPoint(t *testing.T) {
	p := Point{Key: Key{Workload: "PI", Seed: 1}, WarmPrefix: 10_000,
		SampleWindow: 1_000, SamplePeriod: 5_000, SampleWarmup: 500}
	w, ok := p.WarmPoint()
	if !ok {
		t.Fatal("warm prefix reuse unexpectedly skipped")
	}
	if _, sampled := w.SampleConfig(); sampled {
		t.Errorf("warm point carries a sampling schedule: %+v", w)
	}
	full := p
	full.SampleWindow, full.SamplePeriod, full.SampleWarmup = 0, 0, 0
	fw, _ := full.WarmPoint()
	if w != fw {
		t.Errorf("sampled and full points do not share a warm group:\n  %+v\n  %+v", w, fw)
	}
}
