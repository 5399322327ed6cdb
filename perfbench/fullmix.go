package main

import (
	"fmt"
	"time"

	"repro/internal/isa"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// fullMixMaxInstrs caps each full-mix session at its program's first
// million instructions: short sessions give every configuration many
// timed runs, so a low quantile of them can skip the runs a busy host
// slowed.
const fullMixMaxInstrs = 1_000_000

// fullMix runs full-timing sessions through sim.Run, one after another:
// every workload × PBS off/on × {tage-sc-l, tournament} on the 4-wide
// core, each capped at fullMixMaxInstrs. This is the pbsim and figure
// path; the timing model does most of the work. The timed loop runs the
// timing model synchronously: the default asynchronous ring puts the
// emulator and the pipeline on both CPUs of a 2-CPU host, so its speed
// follows the load other tenants put on the second CPU (see NOTES.md).
// The traced run keeps the asynchronous ring, the default session.
type fullMix struct {
	seed  uint64
	progs map[string]*isa.Program
}

type mixConfig struct {
	workload  string
	pred      sim.PredictorKind
	pbs       bool
	seed      uint64
	maxInstrs uint64 // 0 runs the program to completion
}

func (c mixConfig) key() string {
	return fmt.Sprintf("%s/%s/pbs=%t", c.workload, c.pred, c.pbs)
}

func (c mixConfig) config(prog *isa.Program) sim.Config {
	return sim.Config{Workload: c.workload, Program: prog, Seed: c.seed, Predictor: c.pred, PBS: c.pbs, MaxInstrs: c.maxInstrs}
}

// configs lists the mix. A workload's four sessions share one seed, so
// its PBS-off and PBS-on outputs are comparable (§VII-D).
func (f *fullMix) configs() []mixConfig {
	var out []mixConfig
	for i, name := range workloads.Names() {
		for _, pred := range []sim.PredictorKind{sim.PredTAGESCL, sim.PredTournament} {
			for _, pbs := range []bool{false, true} {
				out = append(out, mixConfig{name, pred, pbs, f.seed + uint64(i), fullMixMaxInstrs})
			}
		}
	}
	return out
}

func (f *fullMix) setup() (setupTimes, error) {
	var st setupTimes
	progs, err := buildPrograms(workloads.Names(), &st, func(name string) (*isa.Program, error) {
		return sim.BuildProgram(name, workloads.DefaultParams(), workloads.VariantPlain)
	})
	if err != nil {
		return st, err
	}
	for _, mc := range f.configs() {
		if err := newSession(&st, mc.workload, sim.WithProgram(progs[mc.workload]), sim.WithSeed(mc.seed),
			sim.WithPredictor(mc.pred), sim.WithPBS(mc.pbs), sim.WithMaxInstrs(mc.maxInstrs)); err != nil {
			return st, err
		}
	}
	f.progs = progs
	return st, nil
}

func (f *fullMix) run(budget time.Duration, c *runLog) (figures, error) {
	cfgs := f.configs()
	items := make([]item, len(cfgs))
	for i, mc := range cfgs {
		items[i] = item{key: mc.key(), run: func() (outcome, error) {
			cfg := mc.config(f.progs[mc.workload])
			cfg.SyncTiming = true
			res, err := sim.Run(cfg)
			if err != nil {
				return outcome{}, err
			}
			return outcome{instrs: res.Emu.Instructions, points: 1, fingerprint: fingerprint(res)}, nil
		}}
	}
	m := startMeter()
	l := runLoop(items, budget, c)
	m.stop()
	return l.figures(m), nil
}

// compareOutputs applies each workload's §VII-D accuracy check to its
// PBS-off and PBS-on outputs in res, per predictor.
func compareOutputs(cfgs []mixConfig, res map[string]*sim.Result, c *runLog) {
	for _, mc := range cfgs {
		if mc.pbs {
			continue
		}
		on := mc
		on.pbs = true
		base, pbs := res[mc.key()], res[on.key()]
		if base == nil || pbs == nil {
			continue // the session failed and was counted already
		}
		w, err := workloads.ByName(mc.workload)
		if err != nil || w.CompareOutputs == nil {
			c.fail(1, "%s: no output comparison", mc.workload)
			continue
		}
		if acc := w.CompareOutputs(base.Outputs, pbs.Outputs); !acc.OK {
			c.fail(1, "%s: PBS outputs fail §VII-D: %s %g > %g %s", on.key(), acc.Metric, acc.Value, acc.Bound, acc.Detail)
		}
	}
}

// layerTimes is one traced session's (or a sum of sessions') layer
// time, split as NOTES.md defines it.
type layerTimes struct {
	Instrs       uint64  `json:"instrs"`
	Wall         float64 `json:"wall_ns"`
	Untraced     float64 `json:"untraced_ns"`
	EmuSelf      float64 `json:"emu_self_ns"`
	ProducerWait float64 `json:"producer_wait_ns"`
	ConsumerIdle float64 `json:"consumer_idle_ns"`
	PipelineSelf float64 `json:"pipeline_self_ns"`
	Predict      float64 `json:"predict_ns"`
	Update       float64 `json:"update_ns"`
	Unattributed float64 `json:"unattributed_ns"`
}

// layerDelta computes the layer split of the spans recorded between two
// aggregate snapshots.
func layerDelta(before, after map[string]Agg) layerTimes {
	d := func(name string, self bool) float64 {
		if self {
			return float64(after[name].Self - before[name].Self)
		}
		return float64(after[name].Total - before[name].Total)
	}
	return layerTimes{
		Wall:         d("session", false),
		EmuSelf:      d("emu.run", true),
		ProducerWait: d("trace.exchange", false) + d("trace.drain", false),
		ConsumerIdle: d("trace.serve", true),
		PipelineSelf: d("pipeline.consume", true),
		Predict:      d("branch.predict", false),
		Update:       d("branch.update", false),
		Unattributed: d("session", true),
	}
}

func (a *layerTimes) add(b layerTimes) {
	a.Instrs += b.Instrs
	a.Wall += b.Wall
	a.Untraced += b.Untraced
	a.EmuSelf += b.EmuSelf
	a.ProducerWait += b.ProducerWait
	a.ConsumerIdle += b.ConsumerIdle
	a.PipelineSelf += b.PipelineSelf
	a.Predict += b.Predict
	a.Update += b.Update
	a.Unattributed += b.Unattributed
}

// busy is the simulation work on both goroutines: emulator, pipeline
// and predictor self time, without waits.
func (a layerTimes) busy() float64 { return a.EmuSelf + a.PipelineSelf + a.Predict + a.Update }

func (f *fullMix) trace(budget time.Duration, c *runLog, tr *Tracer) (map[string]float64, error) {
	prod, cons := tr.Track(), tr.Track()
	cfgs := f.configs()
	var (
		total    layerTimes
		perKey   = map[string]*layerTimes{}
		counts   struct{ predicts, correct uint64 }
		pass     []*sim.Result // the first pass's results, for counts
		firstAgg map[string]Agg
	)
	start := time.Now()
	for i := 0; i < len(cfgs) || time.Since(start) < budget; i++ {
		mc := cfgs[i%len(cfgs)]
		cfg := mc.config(f.progs[mc.workload])
		c.attempted++
		t0 := time.Now()
		ref, err := sim.Run(cfg)
		untraced := time.Since(t0)
		if err != nil {
			c.fail(1, "%s: %v", mc.key(), err)
			continue
		}
		before := tr.Aggs()
		got, pred, err := tracedSession(cfg, prod, cons)
		if err != nil {
			c.fail(1, "%s traced: %v", mc.key(), err)
			continue
		}
		if fingerprint(got) != fingerprint(ref) {
			c.fail(1, "%s: traced session's counters or outputs differ from the untraced sim.Run", mc.key())
			continue
		}
		lt := layerDelta(before, tr.Aggs())
		lt.Instrs = got.Emu.Instructions
		lt.Untraced = float64(untraced.Nanoseconds())
		total.add(lt)
		if perKey[mc.key()] == nil {
			perKey[mc.key()] = &layerTimes{}
		}
		perKey[mc.key()].add(lt)
		if i < len(cfgs) {
			pass = append(pass, got)
			counts.predicts += pred.predicts
			counts.correct += pred.correct
			if i == len(cfgs)-1 {
				firstAgg = tr.Aggs()
			}
		}
	}
	if total.Instrs == 0 || firstAgg == nil {
		return nil, fmt.Errorf("no traced session completed")
	}
	tr.Note("layers_by_config", perKey)
	in := float64(total.Instrs)
	busy := total.busy()
	aggs := tr.Aggs()
	v := map[string]float64{
		"emu.self_ns_per_instr":            total.EmuSelf / in,
		"emu.share":                        total.EmuSelf / busy,
		"trace.producer_wait_ns_per_instr": total.ProducerWait / in,
		"trace.consumer_idle_ns_per_instr": total.ConsumerIdle / in,
		"trace.exchanges":                  float64(firstAgg["trace.exchange"].Count),
		"pipeline.self_ns_per_instr":       total.PipelineSelf / in,
		"pipeline.share":                   total.PipelineSelf / busy,
		"pipeline.batches":                 float64(firstAgg["pipeline.consume"].Count),
		"branch.predict_ns":                perCall(aggs["branch.predict"]),
		"branch.update_ns":                 perCall(aggs["branch.update"]),
		"branch.share":                     (total.Predict + total.Update) / busy,
		"branch.predicts":                  float64(counts.predicts),
		"branch.accuracy":                  float64(counts.correct) / float64(max(counts.predicts, 1)),
		"traced.overhead_pct":              (total.Wall - total.Untraced) / total.Untraced * 100,
		"unattributed.share":               total.Unattributed / total.Wall,
	}
	passCounts(pass, v)
	return v, nil
}

func perCall(a Agg) float64 {
	if a.Count == 0 {
		return 0
	}
	return float64(a.Total) / float64(a.Count)
}

// passCounts fills the simulated per-layer counts of one pass over a
// mix: emulator, pipeline, cache and PBS-unit counters. Under sampled
// timing the pipeline and cache counters cover the detailed intervals
// only.
func passCounts(pass []*sim.Result, v map[string]float64) {
	var instrs, timed, cond, prob, cycles, l1i, l1d, l1dMiss, l2Miss, res, steered, viol uint64
	for _, r := range pass {
		instrs += r.Emu.Instructions
		timed += r.Timing.Instructions
		cond += r.Emu.CondBranches
		prob += r.Emu.ProbBranches
		cycles += r.Timing.Cycles
		l1i += r.Timing.L1IAccesses
		l1d += r.Timing.L1DAccesses
		l1dMiss += r.Timing.L1DMisses
		l2Miss += r.Timing.L2Misses
		res += r.PBSStats.Resolutions
		steered += r.PBSStats.Steered
		viol += r.PBSStats.ConstViolations
	}
	v["emu.instrs"] = float64(instrs)
	v["emu.cond_branches"] = float64(cond)
	v["emu.prob_branches"] = float64(prob)
	v["pipeline.cycles"] = float64(cycles)
	v["pipeline.ipc"] = float64(timed) / float64(max(cycles, 1))
	v["cache.l1i_accesses"] = float64(l1i)
	v["cache.l1d_accesses"] = float64(l1d)
	v["cache.l1d_miss_ratio"] = float64(l1dMiss) / float64(max(l1d, 1))
	v["cache.l2_misses"] = float64(l2Miss)
	v["core.resolutions"] = float64(res)
	v["core.steer_ratio"] = float64(steered) / float64(max(res, 1))
	v["core.const_violations"] = float64(viol)
}
