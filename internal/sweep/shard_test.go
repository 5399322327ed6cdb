package sweep

import (
	"context"
	"encoding/csv"
	"reflect"
	"strings"
	"testing"
)

// shardGrid is testGrid with the seed axis collapsed into aggregate
// points.
func shardGrid() Grid {
	g := testGrid()
	g.ShardSeeds = true
	return g
}

func TestSeedSetRoundTrip(t *testing.T) {
	seeds := []uint64{11, 23, 37}
	set := MakeSeedSet(seeds)
	if string(set) != "11,23,37" {
		t.Fatalf("canonical form %q, want 11,23,37", set)
	}
	if got := set.Seeds(); !reflect.DeepEqual(got, seeds) {
		t.Fatalf("round trip gave %v, want %v", got, seeds)
	}
	if set.Count() != 3 {
		t.Fatalf("count %d, want 3", set.Count())
	}
	if s := SeedSet(""); s.Seeds() != nil || s.Count() != 0 {
		t.Fatal("empty set should decode to nothing")
	}
	// Order is identity: a reordered set is a different aggregate.
	if MakeSeedSet([]uint64{23, 11}) == MakeSeedSet([]uint64{11, 23}) {
		t.Fatal("seed order must be significant")
	}
}

func TestShardedGridExpansion(t *testing.T) {
	pts, err := shardGrid().Points()
	if err != nil {
		t.Fatal(err)
	}
	// The seed axis collapses: one aggregate point per remaining
	// coordinate instead of one point per seed.
	if want := 2 * 2 * 2; len(pts) != want {
		t.Fatalf("got %d points, want %d", len(pts), want)
	}
	for _, p := range pts {
		if !p.Sharded() || p.Seed != 0 {
			t.Fatalf("expected aggregate point, got %+v", p)
		}
		if p.Key.Seeds != MakeSeedSet([]uint64{11, 23}) {
			t.Fatalf("wrong seed set %q", p.Key.Seeds)
		}
		if _, err := p.Options(); err == nil {
			t.Fatalf("aggregate point %s produced session options; it must be sharded", p)
		}
	}
}

// TestShardedDeterminism is the tentpole contract: a sharded multi-seed
// point produces per-seed results byte-identical to the unsharded
// sequential sweep of the same seeds, at any parallelism, and its
// aggregate summaries are identical across parallelism too.
func TestShardedDeterminism(t *testing.T) {
	// Unsharded and sequential: the pre-sharding reference.
	ref, err := (&Engine{}).Run(context.Background(), func() Grid {
		g := testGrid()
		g.Parallel = 1
		return g
	}())
	if err != nil {
		t.Fatal(err)
	}

	for _, parallel := range []int{1, 8} {
		g := shardGrid()
		g.Parallel = parallel
		res, err := (&Engine{}).Run(context.Background(), g)
		if err != nil {
			t.Fatal(err)
		}
		refIdx := 0
		for _, r := range res {
			if r.Agg == nil || r.Sim != nil {
				t.Fatalf("parallel=%d: %s: expected aggregate-only result", parallel, r.Point)
			}
			if !reflect.DeepEqual(r.Agg.Seeds, []uint64{11, 23}) {
				t.Fatalf("parallel=%d: %s: wrong shard seeds %v", parallel, r.Point, r.Agg.Seeds)
			}
			for i, s := range r.Agg.Sims {
				want := ref[refIdx]
				refIdx++
				if want.Point.Seed != r.Agg.Seeds[i] || want.Point.Workload != r.Point.Workload {
					t.Fatalf("parallel=%d: shard order diverged from sequential expansion at %s", parallel, r.Point)
				}
				if s.Timing != want.Sim.Timing || s.Emu != want.Sim.Emu || s.PBSStats != want.Sim.PBSStats {
					t.Errorf("parallel=%d: %s seed %d: shard stats differ from sequential run", parallel, r.Point, r.Agg.Seeds[i])
				}
				if !reflect.DeepEqual(s.Outputs, want.Sim.Outputs) {
					t.Errorf("parallel=%d: %s seed %d: shard outputs differ", parallel, r.Point, r.Agg.Seeds[i])
				}
			}
			if got, want := r.Agg.IPC.Mean, (r.Agg.Sims[0].Timing.IPC()+r.Agg.Sims[1].Timing.IPC())/2; got != want {
				t.Errorf("parallel=%d: %s: aggregate IPC mean %v, want %v", parallel, r.Point, got, want)
			}
		}
		if refIdx != len(ref) {
			t.Fatalf("parallel=%d: consumed %d reference points, want %d", parallel, refIdx, len(ref))
		}
	}
}

// TestShardMergeIdempotent checks that re-running an aggregate on one
// engine merges the same record again.
func TestShardMergeIdempotent(t *testing.T) {
	agg := Grid{
		Workloads:  []string{"PI"},
		Seeds:      []uint64{11, 23, 37},
		MaxInstrs:  200_000,
		ShardSeeds: true,
	}
	eng := &Engine{Programs: NewProgramCache()}
	first, err := eng.Run(context.Background(), agg)
	if err != nil {
		t.Fatal(err)
	}
	again, err := eng.Run(context.Background(), agg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again[0].Agg, first[0].Agg) {
		t.Error("re-run merged a different aggregate")
	}
}

func TestAggregateLookup(t *testing.T) {
	g := Grid{
		Workloads:  []string{"PI"},
		Seeds:      []uint64{11, 23},
		MaxInstrs:  200_000,
		ShardSeeds: true,
	}
	res, err := (&Engine{}).Run(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	set := MakeSeedSet([]uint64{11, 23})
	a, err := res.GetAggregate(Key{Workload: "PI", Seeds: set})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Sims) != 2 {
		t.Fatalf("aggregate has %d shard results, want 2", len(a.Sims))
	}
	if _, err := res.Get(Key{Workload: "PI", Seeds: set}); err == nil || !strings.Contains(err.Error(), "GetAggregate") {
		t.Errorf("Get on an aggregate key returned %v, want a GetAggregate hint", err)
	}
	if _, err := res.GetAggregate(Key{Workload: "PI", Seed: 11}); err == nil {
		t.Error("GetAggregate on a single-seed key succeeded")
	}
	if _, err := res.GetAggregate(Key{Workload: "PI", Seeds: MakeSeedSet([]uint64{23, 11})}); err == nil {
		t.Error("GetAggregate with reordered seeds succeeded; order is identity")
	}
}

// TestAggregateRecords checks serialization: per-seed rows followed by
// one aggregate summary row, in both JSON-visible records and CSV.
func TestAggregateRecords(t *testing.T) {
	g := Grid{
		Workloads:  []string{"PI"},
		Seeds:      []uint64{11, 23},
		MaxInstrs:  200_000,
		ShardSeeds: true,
	}
	res, err := (&Engine{}).Run(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	recs := res.Records()
	if len(recs) != 3 {
		t.Fatalf("got %d records, want 2 per-seed + 1 aggregate", len(recs))
	}
	for i, seed := range []uint64{11, 23} {
		if recs[i].Aggregate || recs[i].Seed != seed || recs[i].SeedSet != "" {
			t.Errorf("record %d is not the per-seed row of seed %d: %+v", i, seed, recs[i])
		}
	}
	a := recs[2]
	if !a.Aggregate || a.SeedSet != "11,23" || a.Seed != 0 {
		t.Fatalf("missing aggregate row: %+v", a)
	}
	if a.IPC == 0 || a.IPCCILo > a.IPC || a.IPCCIHi < a.IPC {
		t.Errorf("aggregate IPC %v outside its CI [%v, %v]", a.IPC, a.IPCCILo, a.IPCCIHi)
	}
	if want := (recs[0].IPC + recs[1].IPC) / 2; a.IPC != want {
		t.Errorf("aggregate IPC %v, want per-seed mean %v", a.IPC, want)
	}

	var buf strings.Builder
	if err := WriteRecordsCSV(&buf, recs); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(strings.NewReader(buf.String())).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("CSV has %d rows, want header + 3", len(rows))
	}
	for i, row := range rows {
		if len(row) != len(csvColumns) {
			t.Errorf("CSV row %d has %d fields, want %d", i, len(row), len(csvColumns))
		}
	}
	seedSetCol := -1
	for i, c := range rows[0] {
		if c == "seed_set" {
			seedSetCol = i
		}
	}
	if seedSetCol < 0 || rows[3][seedSetCol] != "11,23" {
		t.Errorf("aggregate CSV row does not carry the seed set: %v", rows[3])
	}
}
