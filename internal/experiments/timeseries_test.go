package experiments

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/sim"
	"repro/internal/stats"
)

func TestTimeSeries(t *testing.T) {
	const interval = 250_000
	ts, err := TimeSeries("PI", true, interval, QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(ts.Points) < 4 {
		t.Fatalf("only %d samples at interval %d", len(ts.Points), interval)
	}
	for i, p := range ts.Points {
		if p.IPC <= 0 {
			t.Errorf("sample %d: interval IPC %.3f", i, p.IPC)
		}
		if i > 0 && p.Instructions <= ts.Points[i-1].Instructions {
			t.Errorf("sample %d not monotone in instructions", i)
		}
	}
	// The series is exact: every full interval ends on a multiple of the
	// interval, the last point is the run's timed total, and the
	// intervals' cycles and mispredictions add up to the run's.
	s, err := sim.New("PI", sim.WithScale(QuickOptions().Scale), sim.WithSeed(QuickOptions().seed0()), sim.WithPBS(true))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	total := s.Snapshot().Timing
	n := len(ts.Points)
	for i, p := range ts.Points[:n-1] {
		if want := uint64(i+1) * interval; p.Instructions != want {
			t.Errorf("sample %d at %d instructions, want %d", i, p.Instructions, want)
		}
	}
	last := ts.Points[n-1]
	if last.Instructions != total.Instructions || last.Instructions <= uint64(n-1)*interval {
		t.Errorf("last sample at %d instructions, want the run's total %d past %d",
			last.Instructions, total.Instructions, uint64(n-1)*interval)
	}
	if last.CumIPC != total.IPC() || last.CumMPKI != total.MPKI() {
		t.Errorf("last sample's cumulative IPC %v, MPKI %v; run's %v, %v", last.CumIPC, last.CumMPKI, total.IPC(), total.MPKI())
	}
	var cycles, mispredicts, prev float64
	for _, p := range ts.Points {
		instrs := float64(p.Instructions) - prev
		cycles += instrs / p.IPC
		mispredicts += p.MPKI * instrs / 1000
		prev = float64(p.Instructions)
	}
	if math.Abs(cycles-float64(total.Cycles)) > 1e-6*float64(total.Cycles) {
		t.Errorf("interval cycles sum to %.1f, run took %d", cycles, total.Cycles)
	}
	if math.Abs(mispredicts-float64(total.Mispredicts)) > 1e-6*float64(total.Mispredicts)+1e-6 {
		t.Errorf("interval mispredictions sum to %.3f, run had %d", mispredicts, total.Mispredicts)
	}
	// The PBS warm-up dynamic: by the last interval steering is active
	// and the probabilistic MPKI far below the first interval's.
	first, lastFull := ts.Points[0], ts.Points[len(ts.Points)-2]
	if lastFull.Steered < 0.9 {
		t.Errorf("steering never warmed up: %.2f of prob branches steered in the last full interval", lastFull.Steered)
	}
	if lastFull.MPKIProb > first.MPKIProb/2 {
		t.Errorf("prob MPKI did not collapse: first interval %.2f, last full %.2f", first.MPKIProb, lastFull.MPKIProb)
	}
	if testing.Verbose() {
		fmt.Println(ts)
	}

	if _, err := TimeSeries("PI", true, 0, QuickOptions()); err == nil {
		t.Error("zero interval accepted")
	}
}

func TestTimeSeriesCI(t *testing.T) {
	const interval = 250_000
	opt := QuickOptions()
	ci, err := TimeSeriesCI("PI", true, interval, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(ci.PerSeed) != len(opt.Seeds) {
		t.Fatalf("got %d per-seed series, want %d", len(ci.PerSeed), len(opt.Seeds))
	}
	if len(ci.Points) < 4 {
		t.Fatalf("only %d merged samples at interval %d", len(ci.Points), interval)
	}
	// The parallel shards are byte-identical to sequential runs of the
	// same seeds.
	for i, seed := range opt.Seeds {
		seq := opt
		seq.Seeds = []uint64{seed}
		want, err := TimeSeries("PI", true, interval, seq)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ci.PerSeed[i], want) {
			t.Errorf("seed %d: sharded series differs from sequential run", seed)
		}
	}
	for i, p := range ci.Points {
		for name, s := range map[string]stats.Summary{
			"instrs": p.Instructions, "IPC": p.IPC, "MPKI": p.MPKI,
		} {
			if s.Mean < s.CI.Lo || s.Mean > s.CI.Hi {
				t.Errorf("sample %d: %s mean %v outside CI %v", i, name, s.Mean, s.CI)
			}
		}
		if p.IPC.Mean <= 0 {
			t.Errorf("sample %d: nonpositive mean IPC", i)
		}
	}
	// The warm-up dynamic holds in the mean, not just for one seed (the
	// final sample may be a partial interval for some seeds; use the one
	// before it).
	first, last := ci.Points[0], ci.Points[len(ci.Points)-2]
	if last.Steered.Mean < 0.9 {
		t.Errorf("steering never warmed up in the mean: %.2f", last.Steered.Mean)
	}
	if last.MPKIProb.Mean > first.MPKIProb.Mean/2 {
		t.Errorf("mean prob MPKI did not collapse: first %.2f, last %.2f", first.MPKIProb.Mean, last.MPKIProb.Mean)
	}
	if testing.Verbose() {
		fmt.Println(ci)
	}

	if _, err := TimeSeriesCI("PI", true, interval, Options{Scale: 1}); err == nil {
		t.Error("empty seed set accepted")
	}
}
