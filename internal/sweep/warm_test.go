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
	warm, err := (&Engine{}).Run(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	g.WarmPrefix = 0
	cold, err := (&Engine{}).Run(context.Background(), g)
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
// sets for the same warm grid.
func TestWarmPrefixDeterminism(t *testing.T) {
	g := warmGrid()
	a, err := (&Engine{}).Run(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	b, err := (&Engine{}).Run(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Records(), b.Records()) {
		t.Error("two fresh engines produced different warm-prefix results")
	}
}

// TestWarmPrefixCancellation: aborting a sweep mid-warm-up surfaces the
// context error and must not poison the engine — the next Run on the
// same engine runs the warm-up again and succeeds.
func TestWarmPrefixCancellation(t *testing.T) {
	g := warmGrid()
	g.MaxInstrs = 0           // run to completion
	g.WarmPrefix = 50_000_000 // far too long to finish before the abort lands
	e := &Engine{}
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
	warm, err := (&Engine{}).Run(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	g.WarmPrefix = 0
	cold, err := (&Engine{}).Run(context.Background(), g)
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
	warm, err := (&Engine{}).Run(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	g.WarmPrefix = 0
	cold, err := (&Engine{}).Run(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if warm[0].Sim.Timing != cold[0].Sim.Timing || warm[0].Sim.Emu != cold[0].Sim.Emu {
		t.Error("halt-inside-prefix point diverged from its cold twin")
	}
}
