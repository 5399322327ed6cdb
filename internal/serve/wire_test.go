package serve

import (
	"bytes"
	"context"
	"testing"
	"time"

	"repro/internal/sweep"
)

// legacyBlobs are result entries as an earlier build stored them, in
// the dedicated wire struct that preceded sim.Result's own JSON form
// (same keys, emu before timing): one full-timing point and one sampled
// point that runs to completion, so outputs and the SMARTS estimate are
// both present.
var legacyBlobs = []struct {
	grid      sweep.Grid
	canonical string
	blob      string
}{
	{
		grid:      sweep.Grid{Workloads: []string{"PI"}, Seeds: []uint64{5}, PBS: []bool{true}, MaxInstrs: 50_000},
		canonical: "workload=PI,predictor=tage-sc-l,pbs=true,width=4,seed=5,variant=plain,filter_prob=false,scale=1,skip_timing=false,capture_prob=false,max_instrs=50000,warm_prefix=0",
		blob:      `{"workload":"PI","emu":{"Instructions":50000,"Branches":9746,"CondBranches":3248,"ProbBranches":1624,"Calls":3249,"Returns":3248,"Loads":3249,"Stores":3250,"RandDraws":1,"Outputs":0},"timing":{"Instructions":50000,"Cycles":18433,"Branches":9746,"CondBranches":3248,"ProbBranches":1624,"ProbSteered":1619,"ProbBoot":5,"ProbRegular":0,"Mispredicts":2,"MispredictsProb":1,"MispredictsReg":1,"L1IMisses":5,"L1DMisses":1,"L2Misses":5,"L1IAccesses":50000,"L1DAccesses":6499},"pbs":{"Resolutions":1624,"Steered":1619,"Bootstrap":5,"Regular":0,"ConstViolations":0,"CapacityMisses":0,"ValueOverflows":0,"UntrackableCtx":0,"Allocations":1,"ContextClears":0,"MaxLiveBranches":1}}`,
	},
	{
		grid: sweep.Grid{Workloads: []string{"Photon"}, Seeds: []uint64{3}, PBS: []bool{true},
			SampleWindow: 10_000, SamplePeriod: 500_000, SampleWarmup: 20_000},
		canonical: "workload=Photon,predictor=tage-sc-l,pbs=true,width=4,seed=3,variant=plain,filter_prob=false,scale=1,skip_timing=false,capture_prob=false,max_instrs=0,warm_prefix=0,sample_window=10000,sample_period=500000,sample_warmup=20000,sample_func_warm=false",
		blob:      `{"workload":"Photon","emu":{"Instructions":2880812,"Branches":394901,"CondBranches":124551,"ProbBranches":34151,"Calls":113139,"Returns":113139,"Loads":91057,"Stores":91042,"RandDraws":1,"Outputs":18},"timing":{"Instructions":160000,"Cycles":105573,"Branches":21902,"CondBranches":6917,"ProbBranches":1894,"ProbSteered":1882,"ProbBoot":12,"ProbRegular":0,"Mispredicts":992,"MispredictsProb":2,"MispredictsReg":990,"L1IMisses":16,"L1DMisses":2,"L2Misses":16,"L1IAccesses":160000,"L1DAccesses":10110},"pbs":{"Resolutions":34151,"Steered":34138,"Bootstrap":13,"Regular":0,"ConstViolations":0,"CapacityMisses":0,"ValueOverflows":0,"UntrackableCtx":0,"Allocations":3,"ContextClears":1,"MaxLiveBranches":3},"outputs":[4659417514218211740,4659560330284408854,4659972171072798720,4656730810794114790,4648838252447148446,4642708220035599530,4636312264139803198,4630460759661958860,4624121645948859485,4616728897088538254,4609486705365199881,4606344682976339976,4600207190662756770,4595703591035386274,0,0,0,4595266492063970649],"sampled":{"windows":6,"cpi":{"Mean":0.6768666666666667,"CI":{"Lo":0.6042263335614145,"Hi":0.7495069997719189}},"ipc":{"Mean":1.4773958435930266,"CI":{"Lo":1.3342103546788864,"Hi":1.6550089667655281}},"mpki":{"Mean":6.1499999999999995,"CI":{"Lo":5.531711471479536,"Hi":6.768288528520463}},"instrs_measured":60000,"instrs_warmed":100000,"instrs_fast_forwarded":2720812}}`,
	},
}

// TestLegacyResultBlobsDecode: result entries an earlier build stored
// must still decode through the server's store path, with no worker
// attached, into records byte-identical to the in-process engine's.
func TestLegacyResultBlobsDecode(t *testing.T) {
	for _, lb := range legacyBlobs {
		pts, err := lb.grid.Points()
		if err != nil {
			t.Fatal(err)
		}
		if len(pts) != 1 || pts[0].Canonical() != lb.canonical {
			t.Fatalf("grid expands to %v, want the single point %s", pts, lb.canonical)
		}
		store := NewMemStore()
		if err := store.Put(Addr("result", lb.canonical), []byte(lb.blob)); err != nil {
			t.Fatal(err)
		}
		_, base := startServer(t, NewServer(store))
		c := &Client{Server: base}
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		jr, err := c.Submit(ctx, lb.grid)
		if err != nil {
			t.Fatal(err)
		}
		if jr.Cached != 1 || jr.Runs != 0 {
			t.Fatalf("%s: cached %d, runs %d; want the stored blob to answer it", lb.canonical, jr.Cached, jr.Runs)
		}
		recs, err := c.Collect(ctx, lb.grid, nil)
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := sweep.WriteRecordsJSON(&got, recs); err != nil {
			t.Fatal(err)
		}
		want, _ := batchOutputs(t, []sweep.Grid{lb.grid})
		if !bytes.Equal(got.Bytes(), want[0]) {
			t.Errorf("%s: records from the stored blob differ from the engine's\n%s", lb.canonical, firstDiff(got.Bytes(), want[0]))
		}
	}
}
