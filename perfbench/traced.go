package main

import (
	"repro/internal/branch"
	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/pipeline"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/trace"
)

// timedPredictor wraps a branch predictor, folding each Predict and
// Update call into the consumer track as a leaf span and counting
// correct predictions.
type timedPredictor struct {
	branch.Predictor
	track           *Track
	predict, update *Agg
	predicts        uint64
	correct         uint64
}

func (p *timedPredictor) Predict(pc uint64) bool {
	t0 := p.track.Now()
	r := p.Predictor.Predict(pc)
	p.track.Leaf(p.predict, t0, p.track.Now())
	return r
}

func (p *timedPredictor) Update(pc uint64, taken, pred bool) {
	p.predicts++
	if taken == pred {
		p.correct++
	}
	t0 := p.track.Now()
	p.Predictor.Update(pc, taken, pred)
	p.track.Leaf(p.update, t0, p.track.Now())
}

// timedSink wraps the pipeline's emu.TraceSink side in a span per batch.
type timedSink struct {
	pipe  *pipeline.Pipeline
	track *Track
	agg   *Agg
}

func (s *timedSink) ConsumeTrace(batch []emu.DynInstr) {
	s.track.BeginAt(s.agg, "pipeline.consume", s.track.Now())
	s.pipe.ConsumeTrace(batch)
	s.track.End()
}

// timedRing wraps the trace ring's producer side (emu.TraceRing) in a
// span per Exchange: the time the emulator waits to hand a batch over.
type timedRing struct {
	ring  *trace.Ring
	track *Track
	agg   *Agg
}

func (r *timedRing) Exchange(filled []emu.DynInstr) []emu.DynInstr {
	r.track.BeginAt(r.agg, "trace.exchange", r.track.Now())
	next := r.ring.Exchange(filled)
	r.track.End()
	return next
}

// tracedSession runs cfg (to completion or its MaxInstrs) on a machine assembled from the
// public constructors exactly as sim.Run assembles its default
// (asynchronous) timing session, with every layer boundary timed: the
// emulator's Run and the ring's Exchange on the producer track, the
// ring's Serve, the pipeline's ConsumeTrace and the predictor's calls on
// the consumer track. It returns what sim.Run would, plus the wrapped
// predictor for its counts.
func tracedSession(cfg sim.Config, prod, cons *Track) (*sim.Result, *timedPredictor, error) {
	var unit *core.Unit
	if cfg.PBS {
		var err error
		if unit, err = core.NewUnit(core.DefaultConfig()); err != nil {
			return nil, nil, err
		}
	}
	cpu, err := emu.New(cfg.Program, rng.New(cfg.Seed), unit)
	if err != nil {
		return nil, nil, err
	}
	inner, err := branch.New(string(cfg.Predictor))
	if err != nil {
		return nil, nil, err
	}
	pred := &timedPredictor{Predictor: inner, track: cons, predict: cons.Agg("branch.predict"), update: cons.Agg("branch.update")}
	pipe, err := pipeline.New(pipeline.FourWide(), cfg.Program, pred)
	if err != nil {
		return nil, nil, err
	}
	ring := trace.New(trace.DefaultBatches)
	sink := &timedSink{pipe: pipe, track: cons, agg: cons.Agg("pipeline.consume")}

	prod.Begin("session")
	cpu.SetTraceRing(&timedRing{ring: ring, track: prod, agg: prod.Agg("trace.exchange")})
	done := make(chan struct{})
	go func() {
		defer close(done)
		cons.Begin("trace.serve")
		ring.Serve(sink)
		cons.End()
	}()
	prod.Begin("emu.run")
	runErr := cpu.Run(cfg.MaxInstrs)
	prod.End()
	prod.Begin("trace.drain")
	ring.Stop()
	prod.End()
	<-done
	prod.End()
	if runErr != nil {
		return nil, nil, runErr
	}
	res := &sim.Result{
		Workload: cfg.Workload,
		Program:  cfg.Program,
		Timing:   pipe.Metrics(),
		Emu:      cpu.Stats(),
		Outputs:  cpu.Output(),
	}
	if unit != nil {
		res.PBSStats = unit.Stats()
	}
	return res, pred, nil
}
