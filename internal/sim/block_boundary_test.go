package sim

import "testing"

// TestObserverFiresOnExactCount pins the observer contract under
// superblock dispatch: even though the emulator retires whole blocks
// per dispatch, every observer sample must land on an exact multiple of
// its interval — the session truncates the fused run at the due point.
func TestObserverFiresOnExactCount(t *testing.T) {
	s, err := New("PI", WithSeed(7), WithPBS(true), WithMaxInstrs(50_000))
	if err != nil {
		t.Fatal(err)
	}
	const every = 997 // prime, so intervals never align with block boundaries
	var fired []uint64
	if err := s.Observe(every, func(sn Snapshot) {
		fired = append(fired, sn.Total.Emu.Instructions)
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(fired) == 0 {
		t.Fatal("observer never fired")
	}
	for i, got := range fired {
		if want := uint64(every) * uint64(i+1); got != want {
			t.Errorf("sample %d fired at %d instructions, want %d", i, got, want)
		}
	}
	if last := fired[len(fired)-1]; s.Instructions()-last >= 2*every {
		t.Errorf("observer stopped firing at %d of %d instructions", last, s.Instructions())
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
