package core

import (
	"testing"

	"repro/internal/rng"
)

// BenchmarkPBSUnitResolve measures the resolution throughput of the PBS
// unit itself, the 193-byte default configuration: one Resolve per op.
// Two static probabilistic branches with two values each alternate
// inside a loop whose back-edge the Context-Table sees after every pair,
// and the loop ends and restarts every 1,000 iterations, so the mix is
// mostly steering plus the bootstrap that follows each context clear.
// The steady state allocates nothing.
func BenchmarkPBSUnitResolve(b *testing.B) {
	u, err := NewUnit(DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(1)
	draws := make([]uint64, 1<<12)
	for i := range draws {
		draws[i] = r.Uint64()
	}
	vals := make([]uint64, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := draws[i&(len(draws)-1)]
		vals[0], vals[1] = v, v>>32
		u.Resolve(Group{PC: 15 + 4*(i&1), CmpVal: 7, Outcome: v&1 == 0, Vals: vals})
		if i&1 == 1 {
			u.OnBranch(40, 10, (i>>1)%1000 != 999)
		}
	}
}
