package sim

import (
	"encoding/json"
	"hash/fnv"
	"math"
	"os"
	"testing"

	"repro/internal/pipeline"
	"repro/internal/workloads"
)

// goldenEntry mirrors one record of testdata/golden.json, which was
// generated by the pre-Session one-shot sim.Run. The compat test proves
// the Session-backed Run wrapper reproduces every counter and every
// output stream (by content hash) byte-identically.
type goldenEntry struct {
	Name        string            `json:"name"`
	Workload    string            `json:"workload"`
	Timing      pipeline.Metrics  `json:"timing"`
	Emu         map[string]uint64 `json:"emu"`
	PBS         map[string]int64  `json:"pbs"`
	OutputsLen  int               `json:"outputs_len"`
	OutputsHash uint64            `json:"outputs_hash"`
	GenLen      int               `json:"gen_len"`
	GenHash     uint64            `json:"gen_hash"`
	ConsHash    uint64            `json:"cons_hash"`
}

// goldenConfigs reconstructs the exact configurations the golden
// generator ran, keyed by entry name.
func goldenConfigs() map[string]Config {
	eight := pipeline.EightWide()
	return map[string]Config{
		"PI/base":             {Workload: "PI", Seed: 1},
		"PI/pbs":              {Workload: "PI", Seed: 1, PBS: true},
		"PI/pbs/tournament":   {Workload: "PI", Seed: 7, Predictor: PredTournament, PBS: true},
		"PI/always":           {Workload: "PI", Seed: 3, Predictor: PredAlways},
		"DOP/pbs/8wide":       {Workload: "DOP", Seed: 11, PBS: true, Core: &eight},
		"MC-integ/filter":     {Workload: "MC-integ", Seed: 23, FilterProb: true},
		"Bandit/pbs":          {Workload: "Bandit", Seed: 5, PBS: true},
		"Genetic/skiptiming":  {Workload: "Genetic", Seed: 13, SkipTiming: true, PBS: true},
		"Photon/capture":      {Workload: "Photon", Seed: 17, PBS: true, CaptureProb: true},
		"Swaptions/maxinstrs": {Workload: "Swaptions", Seed: 29, PBS: true, MaxInstrs: 500000},
		"DOP/predicated":      {Workload: "DOP", Seed: 31, Variant: workloads.VariantPredicated},
		"MC-integ/cfd":        {Workload: "MC-integ", Seed: 37, Variant: workloads.VariantCFD},
		"PI/scale2":           {Workload: "PI", Seed: 41, Params: workloads.Params{Scale: 2}, PBS: true},
	}
}

func hashU64(vs []uint64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range vs {
		for i := 0; i < 8; i++ {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

func hashF64(vs []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range vs {
		bits := math.Float64bits(v)
		for i := 0; i < 8; i++ {
			b[i] = byte(bits >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

// TestRunMatchesGolden asserts that the compatibility wrapper sim.Run
// reproduces the pre-refactor harness byte-identically across workloads,
// predictors, PBS on/off, core widths, variants, instruction caps,
// skip-timing and value-capture modes.
func TestRunMatchesGolden(t *testing.T) {
	data, err := os.ReadFile("testdata/golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var entries []goldenEntry
	if err := json.Unmarshal(data, &entries); err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("empty golden data")
	}
	cfgs := goldenConfigs()
	if len(cfgs) != len(entries) {
		t.Fatalf("golden data has %d entries, test knows %d configs", len(entries), len(cfgs))
	}

	for _, e := range entries {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			t.Parallel()
			cfg, ok := cfgs[e.Name]
			if !ok {
				t.Fatalf("no config for golden entry %q", e.Name)
			}
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Workload != e.Workload {
				t.Errorf("workload label %q, golden %q", res.Workload, e.Workload)
			}
			if res.Timing != e.Timing {
				t.Errorf("timing metrics diverged:\n got %+v\nwant %+v", res.Timing, e.Timing)
			}
			emuGot := map[string]uint64{
				"Instructions": res.Emu.Instructions, "Branches": res.Emu.Branches,
				"CondBranches": res.Emu.CondBranches, "ProbBranches": res.Emu.ProbBranches,
				"Calls": res.Emu.Calls, "Returns": res.Emu.Returns,
				"Loads": res.Emu.Loads, "Stores": res.Emu.Stores,
				"RandDraws": res.Emu.RandDraws, "Outputs": res.Emu.Outputs,
			}
			for k, want := range e.Emu {
				if emuGot[k] != want {
					t.Errorf("emu %s = %d, golden %d", k, emuGot[k], want)
				}
			}
			pbsGot := map[string]int64{
				"Resolutions": int64(res.PBSStats.Resolutions), "Steered": int64(res.PBSStats.Steered),
				"Bootstrap": int64(res.PBSStats.Bootstrap), "Regular": int64(res.PBSStats.Regular),
				"ConstViolations": int64(res.PBSStats.ConstViolations), "CapacityMisses": int64(res.PBSStats.CapacityMisses),
				"ValueOverflows": int64(res.PBSStats.ValueOverflows), "UntrackableCtx": int64(res.PBSStats.UntrackableCtx),
				"Allocations": int64(res.PBSStats.Allocations), "ContextClears": int64(res.PBSStats.ContextClears),
				"MaxLiveBranches": int64(res.PBSStats.MaxLiveBranches),
			}
			for k, want := range e.PBS {
				if pbsGot[k] != want {
					t.Errorf("pbs %s = %d, golden %d", k, pbsGot[k], want)
				}
			}
			if len(res.Outputs) != e.OutputsLen || hashU64(res.Outputs) != e.OutputsHash {
				t.Errorf("outputs diverged: %d values hash %#x, golden %d values hash %#x",
					len(res.Outputs), hashU64(res.Outputs), e.OutputsLen, e.OutputsHash)
			}
			if len(res.Generated) != e.GenLen || hashF64(res.Generated) != e.GenHash {
				t.Errorf("generated stream diverged")
			}
			if hashF64(res.Consumed) != e.ConsHash {
				t.Errorf("consumed stream diverged")
			}
		})
	}
}
