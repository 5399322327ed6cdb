package pipeline

import (
	"testing"

	"repro/internal/branch"
	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/rng"
	"repro/internal/workloads"
)

// recorder is a trace sink that keeps a copy of every batch.
type recorder []emu.DynInstr

func (r *recorder) ConsumeTrace(batch []emu.DynInstr) { *r = append(*r, batch...) }

// recordWorkload runs a workload's default build functionally, with the
// PBS unit when pbs is set, and captures its first n retired
// instructions (fewer if it halts first) for replay through the timing
// model.
func recordWorkload(tb testing.TB, name string, pbs bool, n uint64) (*isa.Program, []emu.DynInstr) {
	tb.Helper()
	w, err := workloads.ByName(name)
	if err != nil {
		tb.Fatal(err)
	}
	prog, err := w.Build(workloads.DefaultParams(), true)
	if err != nil {
		tb.Fatal(err)
	}
	var unit *core.Unit
	if pbs {
		if unit, err = core.NewUnit(core.DefaultConfig()); err != nil {
			tb.Fatal(err)
		}
	}
	cpu, err := emu.New(prog, rng.New(1), unit)
	if err != nil {
		tb.Fatal(err)
	}
	trace := make(recorder, 0, n)
	cpu.SetTraceSink(&trace)
	if err := cpu.Run(n); err != nil {
		tb.Fatal(err)
	}
	return prog, trace
}

// mixTrace is one recorded trace of the workload mix (see recordMix).
type mixTrace struct {
	prog  *isa.Program
	trace []emu.DynInstr
}

// mixTraces holds the workload mix once recordMix has recorded it.
var mixTraces []mixTrace

// mixPrefix is how many instructions of each workload the mix replays.
const mixPrefix = 1 << 15

// recordMix records, once per process, each workload's first mixPrefix
// instructions with PBS off and on (16 traces, 12 MB) for replay
// through the timing model.
func recordMix(b *testing.B) []mixTrace {
	if mixTraces == nil {
		for _, name := range workloads.Names() {
			for _, pbs := range []bool{false, true} {
				prog, trace := recordWorkload(b, name, pbs, mixPrefix)
				mixTraces = append(mixTraces, mixTrace{prog, trace})
			}
		}
	}
	return mixTraces
}

// BenchmarkRetireMix measures the retire kernel over the whole workload
// mix (see recordMix): one iteration replays every trace, in
// emulator-sized batches, through fresh 4- and 8-wide pipelines with
// both predictors, so every iteration times the same 2M instructions.
// Recording and pipeline construction are excluded from the timing;
// the metric is nanoseconds per replayed instruction.
func BenchmarkRetireMix(b *testing.B) {
	b.StopTimer()
	recs := recordMix(b)
	var replayed uint64
	for i := 0; i < b.N; i++ {
		for _, rec := range recs {
			for _, cfg := range []Config{FourWide(), EightWide()} {
				for _, pred := range []string{"tage-sc-l", "tournament"} {
					bp, err := branch.New(pred)
					if err != nil {
						b.Fatal(err)
					}
					pipe, err := New(cfg, rec.prog, bp)
					if err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
					for off := 0; off < len(rec.trace); off += emu.TraceBatch {
						pipe.ConsumeTrace(rec.trace[off:min(off+emu.TraceBatch, len(rec.trace))])
					}
					b.StopTimer()
					replayed += uint64(len(rec.trace))
				}
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(replayed), "ns/instr")
}

// BenchmarkRetireGroup measures what sharing a miss-event stage saves:
// the traces of the workload mix (see recordMix) are replayed, with
// both predictors, through four pipelines — a 4-wide core, an 8-wide
// one, a 4-wide one charging the resolution penalty, and a 4-wide one
// whose ROB is as small as its width. The group sub-benchmark builds
// the first as the lead and the other three as its followers, and per
// batch runs the shared stage's event pass once and then the four
// schedule passes; the solo sub-benchmark builds all four with their
// own stages. One iteration replays every trace with each predictor,
// so both sub-benchmarks time the same work. Both report nanoseconds
// per instruction per member.
func BenchmarkRetireGroup(b *testing.B) {
	resolution, tight := FourWide(), FourWide()
	resolution.ResolutionPenalty = true
	tight.ROBSize = tight.Width
	cfgs := []Config{FourWide(), EightWide(), resolution, tight}
	for _, shared := range []bool{true, false} {
		label := "solo"
		if shared {
			label = "group"
		}
		b.Run(label, func(b *testing.B) {
			b.StopTimer()
			recs := recordMix(b)
			var replayed uint64
			for i := 0; i < b.N; i++ {
				for _, rec := range recs {
					for _, pred := range []string{"tage-sc-l", "tournament"} {
						pipes := make([]*Pipeline, len(cfgs))
						for k, cfg := range cfgs {
							var err error
							if shared && k > 0 {
								pipes[k], err = NewFollower(cfg, pipes[0])
							} else {
								var bp branch.Predictor
								if bp, err = branch.New(pred); err == nil {
									pipes[k], err = New(cfg, rec.prog, bp)
								}
							}
							if err != nil {
								b.Fatal(err)
							}
						}
						b.StartTimer()
						for off := 0; off < len(rec.trace); off += emu.TraceBatch {
							batch := rec.trace[off:min(off+emu.TraceBatch, len(rec.trace))]
							if !shared {
								for _, p := range pipes {
									p.ConsumeTrace(batch)
								}
								continue
							}
							pipes[0].Record(batch)
							for _, p := range pipes {
								p.Schedule(batch)
							}
						}
						b.StopTimer()
						replayed += uint64(len(cfgs) * len(rec.trace))
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(replayed), "ns/instr")
		})
	}
}

// BenchmarkRetireBatch measures the steady-state retire path in
// isolation: a prerecorded trace is replayed through
// Pipeline.ConsumeTrace in emulator-sized batches, exercising fetch
// accounting, the predecoded dataflow walk, functional-unit backfill,
// caches and the TAGE-SC-L predictor — everything the trace-driven model
// does per retired instruction — with zero allocations per batch.
func BenchmarkRetireBatch(b *testing.B) {
	prog, trace := recordWorkload(b, "PI", false, 1<<20)
	pipe, err := New(FourWide(), prog, branch.NewTAGESCL())
	if err != nil {
		b.Fatal(err)
	}
	const batch = 256
	b.ReportAllocs()
	b.ResetTimer()
	var fed uint64
	for i := 0; i < b.N; i++ {
		off := (i * batch) % (len(trace) - batch)
		pipe.ConsumeTrace(trace[off : off+batch])
		fed += batch
	}
	b.ReportMetric(float64(fed)/b.Elapsed().Seconds(), "instr/s")
}

// TestRetireBatchAllocationFree pins the zero-allocation property of the
// steady-state retire path under plain `go test`.
func TestRetireBatchAllocationFree(t *testing.T) {
	prog, trace := recordWorkload(t, "PI", false, 200_000)
	pipe, err := New(FourWide(), prog, branch.NewTAGESCL())
	if err != nil {
		t.Fatal(err)
	}
	pipe.ConsumeTrace(trace) // warm up
	avg := testing.AllocsPerRun(50, func() {
		pipe.ConsumeTrace(trace[:4096])
	})
	if avg != 0 {
		t.Fatalf("retire path allocates: %v allocs per 4096-instruction batch", avg)
	}
}
