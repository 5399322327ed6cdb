package sample

import (
	"strings"
	"testing"
)

func TestValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"zero window", Config{Window: 0, Period: 10}, false},
		{"period too short", Config{Window: 5, Period: 4}, false},
		{"period short of warmup", Config{Window: 5, Warmup: 10, Period: 14}, false},
		{"exact fit", Config{Window: 5, Warmup: 10, Period: 15}, true},
		{"gap", Config{Window: 5, Warmup: 10, Period: 100}, true},
		{"no warmup", Config{Window: 1, Period: 1}, true},
		{"warmup overflow", Config{Window: 2, Warmup: ^uint64(0), Period: 10}, false},
	}
	for _, c := range cases {
		if err := c.cfg.Validate(); (err == nil) != c.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

func TestPhaseAt(t *testing.T) {
	// Per 100-instruction period: 30 measuring, 50 fast-forward, 20
	// warming.
	cfg := Config{Window: 30, Period: 100, Warmup: 20}
	cases := []struct {
		n    uint64
		want Phase
	}{
		{0, Measuring}, {29, Measuring},
		{30, FastForward}, {79, FastForward},
		{80, Warming}, {99, Warming},
		{100, Measuring}, {130, FastForward}, {180, Warming},
	}
	for _, c := range cases {
		if got := cfg.PhaseAt(c.n); got != c.want {
			t.Errorf("PhaseAt(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestPhaseAtZeroOffset(t *testing.T) {
	// Window 0 opens at the run's first instruction, cold — exactly
	// what a full-timing run measures there.
	cfg := Config{Window: 30, Period: 100, Warmup: 20}
	if got := cfg.PhaseAt(0); got != Measuring {
		t.Fatalf("PhaseAt(0) = %v, want Measuring", got)
	}
	if got := cfg.PhaseAt(30); got != FastForward {
		t.Fatalf("PhaseAt(30) = %v, want FastForward", got)
	}
	if got := cfg.PhaseAt(80); got != Warming {
		t.Fatalf("PhaseAt(80) = %v, want Warming", got)
	}
	if got := cfg.PhaseAt(100); got != Measuring {
		t.Fatalf("PhaseAt(100) = %v, want Measuring", got)
	}
}

func TestPhaseAtNoGap(t *testing.T) {
	// Period == Warmup+Window: detailed timing back to back, never
	// fast-forwarding.
	cfg := Config{Window: 10, Period: 30, Warmup: 20}
	for n := uint64(0); n < 90; n++ {
		got := cfg.PhaseAt(n)
		want := Warming
		if n%30 < 10 {
			want = Measuring
		}
		if got != want {
			t.Fatalf("PhaseAt(%d) = %v, want %v", n, got, want)
		}
	}
}

func TestNextBoundary(t *testing.T) {
	cfg := Config{Window: 30, Period: 100, Warmup: 20}
	cases := []struct{ n, want uint64 }{
		{0, 30}, // measuring -> fast-forward
		{29, 30},
		{30, 80}, // fast-forward -> warming
		{79, 80},
		{80, 100}, // warming -> next period's window
		{99, 100},
		{100, 130},
	}
	for _, c := range cases {
		if got := cfg.NextBoundary(c.n); got != c.want {
			t.Errorf("NextBoundary(%d) = %d, want %d", c.n, got, c.want)
		}
	}
	// The boundary is strictly ahead and the phase is uniform up to it.
	for n := uint64(0); n < 500; n++ {
		b := cfg.NextBoundary(n)
		if b <= n {
			t.Fatalf("NextBoundary(%d) = %d, not strictly ahead", n, b)
		}
		p := cfg.PhaseAt(n)
		for m := n; m < b; m++ {
			if cfg.PhaseAt(m) != p {
				t.Fatalf("phase changes at %d inside [%d,%d)", m, n, b)
			}
		}
	}
}

func TestWindowEnd(t *testing.T) {
	cfg := Config{Window: 30, Period: 100, Warmup: 20}
	for _, n := range []uint64{0, 15, 29} {
		if got := cfg.WindowEnd(n); got != 30 {
			t.Errorf("WindowEnd(%d) = %d, want 30", n, got)
		}
	}
	if got := cfg.WindowEnd(120); got != 130 {
		t.Errorf("WindowEnd(120) = %d, want 130", got)
	}
}

func TestEstimate95(t *testing.T) {
	cpis := []float64{1.0, 1.2, 1.1, 0.9, 1.05}
	mpkis := []float64{5, 6, 5.5, 4.5, 5.2}
	e := Estimate95(cpis, mpkis, 500, 1000, 10000)
	if e.Windows != 5 {
		t.Errorf("Windows = %d, want 5", e.Windows)
	}
	if e.CPI.Mean < 1.04 || e.CPI.Mean > 1.06 {
		t.Errorf("CPI mean = %v, want 1.05", e.CPI.Mean)
	}
	if want := 1 / e.CPI.Mean; e.IPC.Mean != want {
		t.Errorf("IPC mean = %v, want 1/CPI = %v", e.IPC.Mean, want)
	}
	if hw := e.IPCHalfWidth(); hw <= 0 {
		t.Errorf("IPC half-width = %v, want > 0", hw)
	}
	if !e.IPC.CI.Contains(e.IPC.Mean) {
		t.Error("IPC CI does not contain its own mean")
	}
	if e.IPC.CI.Lo != 1/e.CPI.CI.Hi || e.IPC.CI.Hi != 1/e.CPI.CI.Lo {
		t.Errorf("IPC CI %v is not the inverted CPI CI %v", e.IPC.CI, e.CPI.CI)
	}
	if e.InstrsMeasured != 500 || e.InstrsWarmed != 1000 || e.InstrsFastForwarded != 10000 {
		t.Errorf("instruction breakdown %d/%d/%d mangled", e.InstrsMeasured, e.InstrsWarmed, e.InstrsFastForwarded)
	}
	for _, want := range []string{"5 windows", "measured 500", "fast-forwarded 10000"} {
		if !strings.Contains(e.String(), want) {
			t.Errorf("String() = %q, missing %q", e.String(), want)
		}
	}
}

func TestPhaseString(t *testing.T) {
	for p, want := range map[Phase]string{FastForward: "fast-forward", Warming: "warming", Measuring: "measuring", Phase(9): "Phase(9)"} {
		if got := p.String(); got != want {
			t.Errorf("Phase(%d).String() = %q, want %q", p, got, want)
		}
	}
}
