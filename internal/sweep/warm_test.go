package sweep

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/sim"
)

// warmGrid is the canonical warm-prefix scenario: four points sharing
// one functional prefix (they differ only in timing axes), capped so
// the test stays fast.
func warmGrid() Grid {
	return Grid{
		Workloads:  []string{"PI"},
		Predictors: []sim.PredictorKind{sim.PredTAGESCL, sim.PredTournament},
		PBS:        []bool{false, true},
		Seeds:      []uint64{11},
		MaxInstrs:  250_000,
		WarmPrefix: 100_000,
	}
}

// TestWarmPrefixFunctionalIdentity: a warm-forked point retires exactly
// the instruction stream its cold twin does — functional stats, PBS
// stats and outputs are identical — while its timing model covers only
// the post-prefix suffix.
func TestWarmPrefixFunctionalIdentity(t *testing.T) {
	g := warmGrid()
	prefix := g.WarmPrefix
	warm, err := NewEngine().Run(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	g.WarmPrefix = 0
	cold, err := NewEngine().Run(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if len(warm) != len(cold) {
		t.Fatalf("warm sweep has %d results, cold has %d", len(warm), len(cold))
	}
	for i := range warm {
		w, c := warm[i].Sim, cold[i].Sim
		if w.Emu != c.Emu {
			t.Errorf("%s: functional stats diverged:\n got %+v\nwant %+v", warm[i].Point, w.Emu, c.Emu)
		}
		if w.PBSStats != c.PBSStats {
			t.Errorf("%s: pbs stats diverged:\n got %+v\nwant %+v", warm[i].Point, w.PBSStats, c.PBSStats)
		}
		if !reflect.DeepEqual(w.Outputs, c.Outputs) {
			t.Errorf("%s: outputs diverged", warm[i].Point)
		}
		if want := c.Emu.Instructions - prefix; w.Timing.Instructions != want {
			t.Errorf("%s: timing saw %d instructions, want the %d-instruction suffix", warm[i].Point, w.Timing.Instructions, want)
		}
		if w.Timing.Cycles == 0 {
			t.Errorf("%s: warm-forked run produced no cycles", warm[i].Point)
		}
	}
}

// TestWarmPrefixDeterminism: two fresh engines produce identical record
// sets for the same warm grid, regardless of which worker won the
// singleflight race.
func TestWarmPrefixDeterminism(t *testing.T) {
	g := warmGrid()
	a, err := NewEngine().Run(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewEngine().Run(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Records(), b.Records()) {
		t.Error("two fresh engines produced different warm-prefix results")
	}
}

// TestWarmPrefixSingleflight: points sharing all functional coordinates
// share a single warm-up. The grid's 8 points split into 4 functional
// groups — 2 seeds × PBS on/off; predictor is a timing axis and does
// not split — so the memo holds exactly 4 entries, and a rerun reuses
// them rather than re-warming.
func TestWarmPrefixSingleflight(t *testing.T) {
	g := warmGrid()
	g.Seeds = []uint64{11, 23}
	e := NewEngine()
	if _, err := e.Run(context.Background(), g); err != nil {
		t.Fatal(err)
	}
	e.warmMu.Lock()
	n := len(e.warm)
	e.warmMu.Unlock()
	if n != 4 {
		t.Errorf("warm memo holds %d entries, want 4 (2 seeds × PBS on/off)", n)
	}
	if _, err := e.Run(context.Background(), g); err != nil {
		t.Fatal(err)
	}
	e.warmMu.Lock()
	n = len(e.warm)
	e.warmMu.Unlock()
	if n != 4 {
		t.Errorf("warm memo holds %d entries after rerun, want 4", n)
	}
}

// TestWarmPrefixCancellation: aborting a sweep mid-warm-up surfaces the
// context error and must not poison the engine — the next Run on the
// same engine redoes the warm-up and succeeds.
func TestWarmPrefixCancellation(t *testing.T) {
	g := warmGrid()
	g.MaxInstrs = 0           // run to completion
	g.WarmPrefix = 50_000_000 // far too long to finish before the abort lands
	e := NewEngine()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	if _, err := e.Run(ctx, g); err == nil {
		t.Fatal("cancelled sweep returned no error")
	} else if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled sweep returned %v, want context.Canceled", err)
	}
	e.warmMu.Lock()
	for wp, ent := range e.warm {
		if ent.err != nil {
			t.Errorf("aborted warm-up left a poisoned memo entry for %s: %v", wp, ent.err)
		}
	}
	e.warmMu.Unlock()
	g.WarmPrefix = 100_000
	g.MaxInstrs = 250_000
	if _, err := e.Run(context.Background(), g); err != nil {
		t.Fatalf("engine unusable after an aborted sweep: %v", err)
	}
}

// TestWarmPrefixBudgetInsidePrefix: a point whose instruction budget
// ends at or inside the prefix runs cold — fast-forwarding past its own
// MaxInstrs would simulate a different run — and its results equal the
// WarmPrefix=0 point's exactly, timing included.
func TestWarmPrefixBudgetInsidePrefix(t *testing.T) {
	g := warmGrid()
	g.MaxInstrs = 80_000 // inside the 100k prefix
	warm, err := NewEngine().Run(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	g.WarmPrefix = 0
	cold, err := NewEngine().Run(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	for i := range warm {
		if warm[i].Sim.Timing != cold[i].Sim.Timing || warm[i].Sim.Emu != cold[i].Sim.Emu {
			t.Errorf("%s: budget-inside-prefix point diverged from its cold twin", warm[i].Point)
		}
	}
}

// TestWarmPrefixHaltInsidePrefix: when the program halts before the
// prefix ends there is no suffix to share; the group's points run cold
// and match the WarmPrefix=0 sweep exactly, timing included.
func TestWarmPrefixHaltInsidePrefix(t *testing.T) {
	g := Grid{
		Workloads:  []string{"Photon"},
		PBS:        []bool{true},
		Seeds:      []uint64{7},
		WarmPrefix: 1 << 40, // far past the program's natural halt
	}
	warm, err := NewEngine().Run(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	g.WarmPrefix = 0
	cold, err := NewEngine().Run(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if warm[0].Sim.Timing != cold[0].Sim.Timing || warm[0].Sim.Emu != cold[0].Sim.Emu {
		t.Error("halt-inside-prefix point diverged from its cold twin")
	}
}

// BenchmarkWarmPrefixSweep measures the wall-clock gain of warm-prefix
// reuse on a four-point group sharing a 1M-instruction warm-up, and
// reports the cold/warm speedup. Both sweeps run on fresh engines with
// a serial pool, so the ratio reflects the algorithmic saving, not
// scheduling luck.
func BenchmarkWarmPrefixSweep(b *testing.B) {
	warm := Grid{
		Workloads:  []string{"PI"},
		Predictors: []sim.PredictorKind{sim.PredTAGESCL, sim.PredTournament},
		PBS:        []bool{false, true},
		Seeds:      []uint64{11},
		MaxInstrs:  1_200_000,
		WarmPrefix: 1_000_000,
		Parallel:   1,
	}
	cold := warm
	cold.WarmPrefix = 0
	var coldDur, warmDur time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		start := time.Now()
		if _, err := NewEngine().Run(context.Background(), cold); err != nil {
			b.Fatal(err)
		}
		coldDur += time.Since(start)
		b.StartTimer()
		start = time.Now()
		if _, err := NewEngine().Run(context.Background(), warm); err != nil {
			b.Fatal(err)
		}
		warmDur += time.Since(start)
	}
	b.ReportMetric(coldDur.Seconds()/warmDur.Seconds(), "speedup")
}
