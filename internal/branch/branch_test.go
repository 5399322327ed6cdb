package branch

import (
	"bytes"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/rng"
)

// accuracy trains a predictor on a synthetic branch stream and returns
// the fraction predicted correctly.
func accuracy(p Predictor, stream func(i int) (pc uint64, taken bool), n int) float64 {
	correct := 0
	for i := 0; i < n; i++ {
		pc, taken := stream(i)
		pred := p.Predict(pc)
		p.Update(pc, taken, pred)
		if pred == taken {
			correct++
		}
	}
	return float64(correct) / float64(n)
}

func TestBimodalLearnsBias(t *testing.T) {
	p := NewBimodal(1024)
	acc := accuracy(p, func(i int) (uint64, bool) { return 100, i%10 != 0 }, 10000)
	if acc < 0.85 {
		t.Errorf("bimodal accuracy on 90%%-biased branch: %.3f", acc)
	}
}

func TestGShareLearnsPattern(t *testing.T) {
	// A pattern that depends on history: taken iff the previous two
	// outcomes were equal — bimodal cannot learn it, gshare can.
	pattern := []bool{true, true, false, true, false, false, true, false}
	stream := func(i int) (uint64, bool) { return 200, pattern[i%len(pattern)] }
	g := NewGShare(4096, 12)
	if acc := accuracy(g, stream, 20000); acc < 0.95 {
		t.Errorf("gshare accuracy on periodic pattern: %.3f", acc)
	}
	b := NewBimodal(4096)
	if acc := accuracy(b, stream, 20000); acc > 0.80 {
		t.Errorf("bimodal unexpectedly good on history pattern: %.3f", acc)
	}
}

func TestLoopPredictorExactTripCount(t *testing.T) {
	lp := NewLoopPredictor(64)
	// Loop with trip count 7: taken 7 times, then not taken, repeated.
	const trip = 7
	miss := 0
	for iter := 0; iter < 200; iter++ {
		for i := 0; i <= trip; i++ {
			taken := i < trip
			pred, conf := lp.Lookup(42)
			if iter > 10 {
				if !conf {
					t.Fatalf("loop predictor lost confidence at iter %d", iter)
				}
				if pred != taken {
					miss++
				}
			}
			lp.Update(42, taken)
		}
	}
	if miss != 0 {
		t.Errorf("confident loop predictor missed %d times on a fixed trip count", miss)
	}
}

func TestLoopPredictorIgnoresIrregular(t *testing.T) {
	lp := NewLoopPredictor(64)
	r := rng.New(3)
	for i := 0; i < 5000; i++ {
		if _, conf := lp.Lookup(7); conf {
			// Confidence on a random branch is permitted transiently but
			// should not persist; just exercise the path.
			_ = conf
		}
		lp.Update(7, r.Float64() < 0.5)
	}
}

func TestTournamentBeatsComponentsOnMix(t *testing.T) {
	// Mixed workload: one biased branch (bimodal-friendly), one
	// history-patterned branch (gshare-friendly).
	pattern := []bool{true, false, false, true}
	stream := func(i int) (uint64, bool) {
		if i%2 == 0 {
			return 100, i%20 != 0
		}
		return 204, pattern[(i/2)%len(pattern)]
	}
	tour := NewTournament()
	acc := accuracy(tour, stream, 40000)
	if acc < 0.93 {
		t.Errorf("tournament accuracy on mix: %.3f", acc)
	}
}

func TestTournamentBudget(t *testing.T) {
	bits := NewTournament().SizeBits()
	if bits > 9*1024 || bits < 5*1024 {
		t.Errorf("tournament budget %d bits, want ~1KB (8192 bits)", bits)
	}
}

func TestTAGESCLBudget(t *testing.T) {
	bits := NewTAGESCL().SizeBits()
	if bits > 72*1024 || bits < 40*1024 {
		t.Errorf("TAGE-SC-L budget %d bits, want ~8KB (65536 bits)", bits)
	}
}

func TestTAGELearnsLongHistory(t *testing.T) {
	// Taken iff i mod 17 == 0 embedded among other branches: the pattern
	// spans ~51 history bits, beyond the tournament's 10-bit gshare but
	// within TAGE's geometric tables.
	stream := func(i int) (uint64, bool) {
		switch i % 3 {
		case 0:
			return 11, (i/3)%17 == 0
		case 1:
			return 22, true
		default:
			return 33, (i/3)%2 == 0
		}
	}
	tage := NewTAGESCL()
	tour := NewTournament()
	accTage := accuracy(tage, stream, 120000)
	accTour := accuracy(tour, stream, 120000)
	if accTage <= accTour {
		t.Errorf("TAGE (%.4f) should beat tournament (%.4f) on long-history pattern", accTage, accTour)
	}
	if accTage < 0.99 {
		t.Errorf("TAGE accuracy too low: %.4f", accTage)
	}
}

func TestTAGERandomBranchNearChance(t *testing.T) {
	r := rng.New(99)
	outcomes := make([]bool, 50000)
	for i := range outcomes {
		outcomes[i] = r.Float64() < 0.5
	}
	p := NewTAGESCL()
	acc := accuracy(p, func(i int) (uint64, bool) { return 5, outcomes[i] }, len(outcomes))
	if acc > 0.56 {
		t.Errorf("no predictor should do %.3f on a fair coin", acc)
	}
}

func TestBiasedProbBranchAccuracyMatchesBias(t *testing.T) {
	// A p=0.8 probabilistic branch: the best static accuracy is 0.8; a
	// good predictor should be close to it but cannot beat it by much.
	r := rng.New(12345)
	p := NewTAGESCL()
	acc := accuracy(p, func(i int) (uint64, bool) { return 9, r.Float64() < 0.8 }, 60000)
	if acc < 0.74 || acc > 0.86 {
		t.Errorf("accuracy %.3f on p=0.8 branch, expected ~0.8", acc)
	}
}

func TestPredictorsLearnAlwaysTaken(t *testing.T) {
	for _, p := range []Predictor{NewBimodal(256), NewGShare(256, 8), NewTournament(), NewTAGESCL()} {
		for i := 0; i < 1000; i++ {
			pred := p.Predict(77)
			p.Update(77, true, pred)
		}
		if !p.Predict(77) {
			t.Errorf("%s did not learn always-taken", p.Name())
		}
	}
}

func TestStaticPredictors(t *testing.T) {
	if !(AlwaysTaken{}).Predict(1) || (NeverTaken{}).Predict(1) {
		t.Error("static predictors broken")
	}
	if (AlwaysTaken{}).Name() != "always-taken" || (NeverTaken{}).Name() != "never-taken" {
		t.Error("static predictor metadata broken")
	}
	(AlwaysTaken{}).Update(1, true, true)
}

func TestConstructorPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewBimodal(100) },
		func() { NewGShare(0, 4) },
		func() { NewGShare(64, 40) },
		func() { NewLoopPredictor(3) },
		func() { NewTournamentSized(64, 64, 100, 8, 16) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic for invalid geometry")
				}
			}()
			f()
		}()
	}
}

func TestFoldedHistoryMatchesDirect(t *testing.T) {
	// Property: the incrementally folded history equals folding the full
	// history buffer directly.
	var h histBuf
	f := newFolded(13, 5)
	r := rng.New(4)
	for i := 0; i < 2000; i++ {
		bit := uint8(0)
		if r.Float64() < 0.5 {
			bit = 1
		}
		h.push(bit)
		f.update(&h, 5)
		// Direct fold of the last 13 bits into 5.
		var direct uint32
		for j := 12; j >= 0; j-- {
			direct = ((direct << 1) | (direct >> 4)) & 0x1f
			direct ^= uint32(h.at(uint32(j)))
		}
		if f.comp != direct {
			t.Fatalf("folded history diverged at step %d: %x vs %x", i, f.comp, direct)
		}
	}
}

// TestReleasedPredictorsRestartAtPowerOn: a predictor built on the
// tables a trained one released starts from the power-on state.
func TestReleasedPredictorsRestartAtPowerOn(t *testing.T) {
	state := func(p Predictor) []byte {
		e := ckpt.NewEncoder()
		if err := p.CheckpointState(e.Section("p")); err != nil {
			t.Fatal(err)
		}
		data, err := e.Encode()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	for _, name := range []string{"tage-sc-l", "tournament"} {
		p, err := New(name)
		if err != nil {
			t.Fatal(err)
		}
		want := state(p)
		r := rng.New(7)
		for i := 0; i < 20_000; i++ {
			pc := uint64(r.Float64() * 64)
			p.Update(pc, r.Float64() < 0.6, p.Predict(pc))
		}
		Release(p)
		q, err := New(name)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(state(q), want) {
			t.Errorf("%s built on released tables is not in its power-on state", name)
		}
	}
}
