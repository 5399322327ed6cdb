package sim

import "testing"

// TestRunForStopsOnExactCount pins interval stepping under superblock
// dispatch: even though the emulator retires whole blocks per dispatch,
// every RunFor step must stop on an exact multiple of its interval —
// the session truncates the fused run at the due point — until the
// budget ends the run.
func TestRunForStopsOnExactCount(t *testing.T) {
	const budget = 50_000
	s, err := New("PI", WithSeed(7), WithPBS(true), WithMaxInstrs(budget))
	if err != nil {
		t.Fatal(err)
	}
	const every = 997 // prime, so intervals never align with block boundaries
	snaps, err := stepSnapshots(s, every)
	if err != nil {
		t.Fatal(err)
	}
	if want := budget/every + 2; len(snaps) != want {
		t.Fatalf("took %d snapshots, want %d", len(snaps), want)
	}
	for i, sn := range snaps[:len(snaps)-1] {
		if want := uint64(every * i); sn.Emu.Instructions != want {
			t.Errorf("step %d stopped at %d instructions, want %d", i, sn.Emu.Instructions, want)
		}
	}
	if got := snaps[len(snaps)-1].Emu.Instructions; got != budget {
		t.Errorf("last step stopped at %d instructions, want the budget %d", got, budget)
	}
}

// TestMidBlockSessionCheckpoint takes a session checkpoint at a RunFor
// stop that lands mid-superblock and proves the resumed session is
// byte-identical to the original at completion.
func TestMidBlockSessionCheckpoint(t *testing.T) {
	s, err := New("PI", WithSeed(11), WithPBS(true), WithMaxInstrs(20_000))
	if err != nil {
		t.Fatal(err)
	}
	// 4099 is prime: with the PI loop's multi-instruction superblocks
	// this stop is mid-block, forcing the truncated dispatch path.
	if _, err := s.RunFor(4099); err != nil {
		t.Fatal(err)
	}
	if got := s.Instructions(); got != 4099 {
		t.Fatalf("RunFor stopped at %d instructions, want 4099", got)
	}
	ck, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := Resume(ck)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if err := resumed.Run(); err != nil {
		t.Fatal(err)
	}
	ckA, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	ckB, err := resumed.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if string(ckA.Bytes()) != string(ckB.Bytes()) {
		t.Fatal("resumed session diverged from original after mid-block checkpoint")
	}
}
