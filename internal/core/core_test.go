package core

import (
	"testing"
	"testing/quick"

	"repro/internal/ckpt"
)

func TestDefaultConfigCost193(t *testing.T) {
	// The headline number of the paper's abstract: 193 bytes for 4
	// branches x 2 values, 4 in flight, 2 context loops.
	cost := DefaultConfig().Cost()
	if got := cost.TotalBytes(); got != 193 {
		t.Fatalf("default config costs %d bytes, paper says 193", got)
	}
	// Component checks against §V-C2's arithmetic.
	if cost.InFlightBits != 128 { // 16 bytes
		t.Errorf("Prob-in-Flight bits = %d, want 128", cost.InFlightBits)
	}
	if cost.ContextBits != 300 { // 37.5 bytes
		t.Errorf("Context-Table bits = %d, want 300", cost.ContextBits)
	}
	// "Assuming four probabilistic branches, this amounts to about 140
	// bytes" for Prob-BTB + SwapTable.
	if bt := cost.ProbBTBBits + cost.SwapTableBits; bt != 1116 {
		t.Errorf("Prob-BTB+SwapTable bits = %d, want 1116 (~140 bytes)", bt)
	}
}

func TestCostPerBranch51Bytes(t *testing.T) {
	// "to support one probabilistic branch with two probabilistic values
	// and four in-flight copies of the branch, we need 51 bytes in the
	// Prob-BTB, SwapTable, and Prob-in-Flight."
	cfg := DefaultConfig()
	cfg.Branches = 1
	cfg.EnableContext = false
	cost := cfg.Cost()
	if got := cost.TotalBytes(); got != 51 {
		t.Fatalf("one-branch config costs %d bytes, paper says 51", got)
	}
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, mod := range []func(*Config){
		func(c *Config) { c.Branches = 0 },
		func(c *Config) { c.ValuesPerBranch = 0 },
		func(c *Config) { c.InFlight = 0 },
		func(c *Config) { c.ContextLoops = 0 },
		func(c *Config) { c.PCBits = 0 },
		func(c *Config) { c.RegIdxBits = 99 },
	} {
		bad := DefaultConfig()
		mod(&bad)
		if err := bad.Validate(); err == nil {
			t.Errorf("invalid config accepted: %+v", bad)
		}
	}
	if _, err := NewUnit(Config{}); err == nil {
		t.Error("NewUnit accepted the zero config")
	}
}

func mustUnit(t *testing.T, cfg Config) *Unit {
	t.Helper()
	u, err := NewUnit(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

func TestBootstrapThenSteered(t *testing.T) {
	cfg := DefaultConfig()
	cfg.EnableContext = false
	u := mustUnit(t, cfg)

	// Feed 10 instances; outcomes alternate and values count up. The
	// first InFlight (4) must be bootstrap with their natural outcomes;
	// instance i >= 4 must be steered with instance i-4's outcome+value.
	outcomes := []bool{true, false, false, true, true, true, false, true, false, false}
	for i, o := range outcomes {
		res := u.Resolve(Group{PC: 100, CmpVal: 7, Outcome: o, Vals: []uint64{uint64(i)}})
		if i < 4 {
			if res.Mode != ModeBootstrap {
				t.Fatalf("instance %d: mode %v, want bootstrap", i, res.Mode)
			}
			if res.Taken != o || res.Vals[0] != uint64(i) {
				t.Fatalf("bootstrap instance %d altered outcome/values", i)
			}
			continue
		}
		if res.Mode != ModeSteered {
			t.Fatalf("instance %d: mode %v, want steered", i, res.Mode)
		}
		if res.Taken != outcomes[i-4] {
			t.Fatalf("instance %d: steered direction %v, want instance %d's outcome %v",
				i, res.Taken, i-4, outcomes[i-4])
		}
		if res.Vals[0] != uint64(i-4) {
			t.Fatalf("instance %d: steered value %d, want %d (direction/value pairing)",
				i, res.Vals[0], i-4)
		}
	}
	st := u.Stats()
	if st.Bootstrap != 4 || st.Steered != 6 {
		t.Errorf("stats: %+v", st)
	}
}

func TestConstValViolationFlushes(t *testing.T) {
	cfg := DefaultConfig()
	cfg.EnableContext = false
	u := mustUnit(t, cfg)
	for i := 0; i < 6; i++ {
		u.Resolve(Group{PC: 5, CmpVal: 42, Outcome: true, Vals: []uint64{1}})
	}
	// Changing the comparison value must demote this instance to a
	// regular branch (§IV correctness rule) and flush the entry.
	res := u.Resolve(Group{PC: 5, CmpVal: 43, Outcome: false, Vals: []uint64{2}})
	if res.Mode != ModeRegular {
		t.Fatalf("const violation not demoted: %v", res.Mode)
	}
	if u.Stats().ConstViolations != 1 {
		t.Errorf("stats: %+v", u.Stats())
	}
	// The next instance with the new value re-bootstraps.
	res = u.Resolve(Group{PC: 5, CmpVal: 43, Outcome: true, Vals: []uint64{3}})
	if res.Mode != ModeBootstrap {
		t.Errorf("after flush: mode %v, want bootstrap", res.Mode)
	}
}

func TestCapacityAndDeadEviction(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Branches = 2
	cfg.EnableContext = false
	u := mustUnit(t, cfg)
	u.Resolve(Group{PC: 1, CmpVal: 0, Outcome: true, Vals: []uint64{0}})
	u.Resolve(Group{PC: 2, CmpVal: 0, Outcome: true, Vals: []uint64{0}})
	// Third branch: table full, no context tracking so nothing is dead.
	res := u.Resolve(Group{PC: 3, CmpVal: 0, Outcome: true, Vals: []uint64{0}})
	if res.Mode != ModeRegular {
		t.Fatalf("over-capacity branch not regular: %v", res.Mode)
	}
	if u.Stats().CapacityMisses != 1 {
		t.Errorf("stats: %+v", u.Stats())
	}
	if u.LiveBranches() != 2 {
		t.Errorf("live branches: %d", u.LiveBranches())
	}
}

func TestValueOverflow(t *testing.T) {
	cfg := DefaultConfig() // 2 values per branch
	cfg.EnableContext = false
	u := mustUnit(t, cfg)
	res := u.Resolve(Group{PC: 1, CmpVal: 0, Outcome: true, Vals: []uint64{1, 2, 3}})
	if res.Mode != ModeRegular || u.Stats().ValueOverflows != 1 {
		t.Errorf("3-value group must be regular with 2-value hardware: %v %+v", res.Mode, u.Stats())
	}
}

// driveLoop runs one full activation of a synthetic loop: body branches at
// backPC back to headPC n-1 times, then falls through (not taken).
func driveLoop(u *Unit, headPC, backPC, n int, body func(iter int)) {
	for i := 0; i < n; i++ {
		body(i)
		u.OnBranch(backPC, headPC, i < n-1)
	}
}

func TestContextLoopDetectionAndClearing(t *testing.T) {
	u := mustUnit(t, DefaultConfig())
	probes := 0
	driveLoop(u, 10, 20, 12, func(i int) {
		res := u.Resolve(Group{PC: 15, CmpVal: 1, Outcome: i%2 == 0, Vals: []uint64{uint64(i)}})
		if res.Mode != ModeRegular {
			probes++
		}
	})
	if probes == 0 {
		t.Fatal("no probabilistic instances handled inside the loop")
	}
	if u.Stats().ContextClears == 0 {
		t.Error("loop termination did not clear entries")
	}
	if u.LiveBranches() != 0 {
		t.Errorf("entries survive loop termination: %d", u.LiveBranches())
	}

	// A second activation of the same loop is a fresh context: the branch
	// must bootstrap again (§IV: a later execution is a new context).
	first := true
	driveLoop(u, 10, 20, 6, func(i int) {
		res := u.Resolve(Group{PC: 15, CmpVal: 1, Outcome: true, Vals: []uint64{0}})
		if first {
			// Iteration 0 happens before the backward branch re-detects
			// the loop; from iteration 1 the entry re-bootstraps.
			first = false
			return
		}
		if i >= 1 && i < 4 && res.Mode == ModeSteered {
			t.Errorf("iteration %d steered without re-bootstrap", i)
		}
	})
}

func TestContextCallDepth(t *testing.T) {
	u := mustUnit(t, DefaultConfig())
	tr := u.ContextTracker()
	// Enter a loop.
	u.OnBranch(20, 10, true)
	if tr.ActiveLoopPC() != 10 {
		t.Fatal("loop not detected")
	}
	// Depth 1: still trackable, with the call PC as context.
	u.OnCall(12)
	ck, ok := tr.Context()
	if !ok || ck.FuncPC != 12 {
		t.Fatalf("depth-1 context: %+v %v", ck, ok)
	}
	// Depth 2: untrackable (§V-C1).
	u.OnCall(13)
	if _, ok := tr.Context(); ok {
		t.Fatal("depth-2 context must be untrackable")
	}
	res := u.Resolve(Group{PC: 99, CmpVal: 0, Outcome: true, Vals: []uint64{0}})
	if res.Mode != ModeRegular || u.Stats().UntrackableCtx != 1 {
		t.Errorf("deep-call branch not demoted: %v %+v", res.Mode, u.Stats())
	}
	// Returning restores trackability and clears the call PC at depth 0.
	u.OnRet()
	if ck, ok := tr.Context(); !ok || ck.FuncPC != 12 {
		t.Errorf("depth-1 after return: %+v %v", ck, ok)
	}
	u.OnRet()
	if ck, ok := tr.Context(); !ok || ck.FuncPC != 0 {
		t.Errorf("depth-0 after return: %+v %v", ck, ok)
	}
}

func TestContextDistinctCallSites(t *testing.T) {
	// The same branch PC reached through two different call sites must
	// get two separate Prob-BTB entries (§V-C1).
	u := mustUnit(t, DefaultConfig())
	u.OnBranch(50, 10, true) // loop active
	u.OnCall(11)
	u.Resolve(Group{PC: 200, CmpVal: 0, Outcome: true, Vals: []uint64{0}})
	u.OnRet()
	u.OnCall(22)
	u.Resolve(Group{PC: 200, CmpVal: 0, Outcome: true, Vals: []uint64{0}})
	u.OnRet()
	if u.LiveBranches() != 2 {
		t.Errorf("distinct call sites share an entry: %d live", u.LiveBranches())
	}
}

func TestNestedLoopTermination(t *testing.T) {
	// Outer loop terminating must erase both loops when it is older
	// ("If the older loop terminates before the newer one, both loops
	// are erased").
	u := mustUnit(t, DefaultConfig())
	tr := u.ContextTracker()
	u.OnBranch(100, 10, true) // outer loop
	u.OnBranch(50, 30, true)  // inner loop
	if tr.LiveLoops() != 2 {
		t.Fatalf("live loops: %d", tr.LiveLoops())
	}
	u.OnBranch(100, 10, false) // outer terminates
	if tr.LiveLoops() != 0 {
		t.Errorf("inner loop survives outer termination: %d", tr.LiveLoops())
	}
}

func TestDeadGenerationEviction(t *testing.T) {
	// Entries allocated outside any loop become evictable once a loop is
	// active, so the table does not stay clogged with stale entries.
	cfg := DefaultConfig()
	cfg.Branches = 2
	u := mustUnit(t, cfg)
	u.Resolve(Group{PC: 1, CmpVal: 0, Outcome: true, Vals: []uint64{0}})
	u.Resolve(Group{PC: 2, CmpVal: 0, Outcome: true, Vals: []uint64{0}})
	// Enter a loop; the gen-0 entries are now dead and evictable.
	u.OnBranch(20, 10, true)
	res := u.Resolve(Group{PC: 3, CmpVal: 0, Outcome: true, Vals: []uint64{0}})
	if res.Mode == ModeRegular {
		t.Fatalf("dead-generation eviction failed: %v %+v", res.Mode, u.Stats())
	}
}

func TestSaveRestoreState(t *testing.T) {
	cfg := DefaultConfig()
	cfg.EnableContext = false
	u := mustUnit(t, cfg)
	for i := 0; i < 6; i++ {
		u.Resolve(Group{PC: 9, CmpVal: 3, Outcome: i%3 == 0, Vals: []uint64{uint64(i)}})
	}
	// Snapshot the PBS state, as a context switch saving it would
	// (§V-C2).
	enc := ckpt.NewEncoder()
	if err := u.CheckpointState(enc.Section("pbs")); err != nil {
		t.Fatal(err)
	}
	saved, err := enc.Encode()
	if err != nil {
		t.Fatal(err)
	}
	// Drain the unit past the snapshot.
	next := u.Resolve(Group{PC: 9, CmpVal: 3, Outcome: true, Vals: []uint64{100}})
	dec, err := ckpt.NewDecoder(saved)
	if err != nil {
		t.Fatal(err)
	}
	r, _ := dec.Section("pbs")
	if err := u.RestoreState(r); err != nil {
		t.Fatal(err)
	}
	replay := u.Resolve(Group{PC: 9, CmpVal: 3, Outcome: true, Vals: []uint64{100}})
	if next.Taken != replay.Taken || next.Vals[0] != replay.Vals[0] || next.Mode != replay.Mode {
		t.Errorf("restore did not reproduce the pre-snapshot behaviour: %+v vs %+v", next, replay)
	}
}

func TestSteeredPreservesOutcomeMultiset(t *testing.T) {
	// Property: over any outcome sequence, the multiset of directions PBS
	// issues equals the multiset of recorded outcomes shifted by the
	// bootstrap prefix — PBS replays decisions, it does not invent them.
	f := func(outs []bool) bool {
		if len(outs) < 6 {
			return true
		}
		cfg := DefaultConfig()
		cfg.EnableContext = false
		u, err := NewUnit(cfg)
		if err != nil {
			return false
		}
		var issued []bool
		for i, o := range outs {
			res := u.Resolve(Group{PC: 1, CmpVal: 5, Outcome: o, Vals: []uint64{uint64(i)}})
			issued = append(issued, res.Taken)
		}
		// issued[i] == outs[i] for i < 4 (bootstrap), outs[i-4] after.
		for i := range issued {
			want := outs[i]
			if i >= 4 {
				want = outs[i-4]
			}
			if issued[i] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestModeString(t *testing.T) {
	if ModeRegular.String() != "regular" || ModeBootstrap.String() != "bootstrap" ||
		ModeSteered.String() != "steered" {
		t.Error("Mode strings broken")
	}
}
